#include "detection/pi2.hpp"

#include <algorithm>

#include "crypto/siphash.hpp"

namespace fatih::detection {

namespace {
std::uint64_t payload_key(const sim::ControlPayload& payload) {
  const auto& p = static_cast<const SegmentSummaryPayload&>(payload);
  // Key on the full signed content so equivocating summaries BOTH flood.
  constexpr crypto::SipKey kKey{0x50493246C00DF00DULL, 0x64697373656D3031ULL};
  auto bytes = p.summary.to_bytes();
  crypto::append_bytes(bytes, p.envelope.tag);
  return crypto::siphash24(kKey, bytes.data(), bytes.size());
}
}  // namespace

Pi2Engine::Pi2Engine(sim::Network& net, const crypto::KeyRegistry& keys, const PathCache& paths,
                     const std::vector<util::NodeId>& terminals, Pi2Config config)
    : RoundDriver(net, keys, paths, config.clock, config.rounds, obs::TraceSource::kPi2, "pi2"),
      config_(config) {
  // Enumerate the in-use paths and the monitored segments.
  const auto used_paths = paths.tables().all_paths(terminals);
  const routing::SegmentIndex index(used_paths, config_.k);
  segments_ = index.all_pi2_segments();
  for (std::size_t i = 0; i < segments_.size(); ++i) segment_ids_[segments_[i]] = i;

  generators_.resize(net_.node_count());
  for (util::NodeId r = 0; r < net_.node_count(); ++r) {
    if (!net_.is_router(r)) continue;
    if (std::none_of(segments_.begin(), segments_.end(),
                     [r](const auto& seg) { return seg.contains(r); })) {
      continue;
    }
    generators_[r] =
        std::make_unique<SummaryGenerator>(net_, keys_, r, config_.clock, paths);
    for (const auto& seg : segments_) {
      const auto& nodes = seg.nodes();
      for (std::size_t pos = 0; pos < nodes.size(); ++pos) {
        if (nodes[pos] == r) generators_[r]->monitor(seg, pos);
      }
    }
  }

  flood_ = std::make_unique<FloodService>(net_, kKindSummaryFlood);
  flood_->set_key_fn(payload_key);
  if (config_.reliable.enabled) {
    channel_ =
        std::make_unique<ReliableChannel>(net_, keys_, kKindSummaryFlood, config_.reliable);
    channel_->set_key_fn(payload_key);
    flood_->set_channel(channel_.get());
  }
  // Verify-before-reflood: an unverifiable copy is dropped at the first
  // honest hop and attributed to the hop that handed it over.
  flood_->set_validate_fn([this](util::NodeId, const sim::ControlPayload& payload) {
    std::optional<SegmentSummary> decoded;
    return vet(payload, decoded) == ControlVerdict::kOk;
  });
  flood_->set_invalid_fn([this](util::NodeId at, util::NodeId prev,
                                const sim::ControlPayload& payload, util::SimTime) {
    on_invalid(at, prev, payload);
  });
  flood_->set_delivery_fn(
      [this](util::NodeId at, const sim::ControlPayload& payload, util::SimTime) {
        on_delivery(at, payload);
      });
}

ControlVerdict Pi2Engine::vet(const sim::ControlPayload& payload,
                              std::optional<SegmentSummary>& out, std::int64_t* margin) const {
  const auto& p = static_cast<const SegmentSummaryPayload&>(payload);
  const ControlVerdict verdict = guard_.check_summary(p.envelope, out);
  if (verdict != ControlVerdict::kOk) return verdict;
  return admit_round(out->round, margin);
}

void Pi2Engine::on_invalid(util::NodeId at, util::NodeId prev,
                           const sim::ControlPayload& payload) {
  std::optional<SegmentSummary> decoded;
  std::int64_t margin = 0;
  const ControlVerdict verdict = vet(payload, decoded, &margin);
  guard_.reject(at, prev, decoded.has_value() ? decoded->round : -1, verdict, nullptr);
  if (verdict == ControlVerdict::kStale && margin < ControlGuard::kSuspectMargin) {
    return;  // plausibly a late retransmission from the retry schedule
  }
  // The hop that handed over the bad copy is ground truth in the sim:
  // honest routers verify before re-flooding, so `prev` forged, tampered
  // or replayed it — precision 1, no ambiguity.
  const char* cause =
      verdict == ControlVerdict::kStale ? "stale-replay" : "invalid-control";
  suspect(at, routing::PathSegment{prev}, config_.clock.round_of(net_.sim().now()), cause);
}

void Pi2Engine::on_delivery(util::NodeId at, const sim::ControlPayload& payload) {
  const auto& p = static_cast<const SegmentSummaryPayload&>(payload);
  std::optional<SegmentSummary> decoded;
  if (vet(payload, decoded) != ControlVerdict::kOk) return;  // originator-local copies
  guard_.accept();
  const auto it = segment_ids_.find(decoded->segment);
  if (it == segment_ids_.end()) return;
  const std::size_t sid = it->second;
  // The flood keys on full signed content, so two conflicting signed
  // summaries for one (segment, reporter, round) BOTH circulate — the
  // first router to hold the pair files it as a proof.
  const std::tuple<std::size_t, util::NodeId, std::int64_t> stmt{sid, decoded->reporter,
                                                                 decoded->round};
  offer(ledger_, stmt, p.envelope, at, sid, "conflicting-summaries");
  // Dedup into the canonical variant store (payload bytes are the
  // canonical serialization, so equal bytes == equal summary); the
  // per-router slot just records which variant this router holds.
  auto& vars = variants_[stmt];
  const auto held = std::find_if(vars.begin(), vars.end(), [&p](const Variant& v) {
    return v.payload == p.envelope.payload;
  });
  const auto vidx = static_cast<std::uint32_t>(held - vars.begin());
  if (held == vars.end()) {
    vars.push_back(Variant{decoded->counters, std::move(decoded->content), p.envelope.payload, {}});
  }
  Slot& slot = received_[{at, sid, decoded->reporter, decoded->round}];
  if (slot.variant != kNoVariant) {
    if (slot.variant != vidx) slot.poisoned = true;  // conflicting signed copies
    return;
  }
  slot.variant = vidx;
}

void Pi2Engine::inject_summary(util::NodeId from, const SegmentSummary& summary) {
  flood_summary(from, summary);
}

void Pi2Engine::flood_summary(util::NodeId from, SegmentSummary summary) {
  auto payload = std::make_shared<SegmentSummaryPayload>();
  payload->kind_tag = kKindSummaryFlood;
  payload->envelope = crypto::sign(keys_, from, summary.to_bytes());
  payload->summary = std::move(summary);
  const std::uint32_t bytes = payload->summary.wire_bytes();
  flood_->originate(from, std::move(payload), bytes);
}

void Pi2Engine::start() {
  start_rounds(
      config_.collect_settle, config_.evaluate_settle,
      [this](std::int64_t round) { disseminate(round); },
      [this](std::int64_t round) { evaluate(round); });
}

std::vector<routing::PathSegment> Pi2Engine::monitored_by(util::NodeId r) const {
  std::vector<routing::PathSegment> out;
  for (const auto& seg : segments_) {
    if (seg.contains(r)) out.push_back(seg);
  }
  return out;
}

void Pi2Engine::disseminate(std::int64_t round) {
  for (util::NodeId r = 0; r < net_.node_count(); ++r) {
    if (generators_[r] == nullptr) continue;
    auto mut = mutators_.find(r);
    for (const auto& seg : segments_) {
      if (!seg.contains(r)) continue;
      SegmentSummary summary = generators_[r]->take_summary(seg, round);
      if (mut != mutators_.end()) {
        if (!mut->second(summary)) continue;  // suppressed
      }
      flood_summary(r, std::move(summary));
    }
  }
}

void Pi2Engine::evaluate(std::int64_t round) {
  // Churn awareness: a segment whose round straddles a route change, or
  // that is off the live path after a reroute, is not evaluated.
  std::vector<bool> invalid(segments_.size());
  for (std::size_t sid = 0; sid < segments_.size(); ++sid) {
    invalid[sid] = churned(round, segments_[sid]);
  }
  invalidate(round, static_cast<std::uint64_t>(std::count(invalid.begin(), invalid.end(), true)));

  // Every correct router evaluates every monitored segment: the summary
  // flood already delivered all signed summaries everywhere, which is the
  // reliable broadcast of evidence in Fig. 5.1 and yields strong
  // completeness (all correct routers suspect, not just segment members).
  for (util::NodeId r = 0; r < net_.node_count(); ++r) {
    if (!net_.is_router(r)) continue;
    for (std::size_t sid = 0; sid < segments_.size(); ++sid) {
      if (invalid[sid]) continue;
      const auto& seg = segments_[sid];
      const auto& nodes = seg.nodes();
      // Graceful degradation: the round completes on whatever summaries
      // made it. A reporter whose summary never arrived (after the
      // transport exhausted its retries) is itself suspected — withholding
      // is evidence under the protocol-faulty definition (§2.2.1) — with
      // precision 1, strictly tighter than the pair bound. Equivocation
      // (two conflicting signed summaries for one key) likewise convicts
      // the signer alone.
      // Resolve each reporter's slot to its shared variant; the TV sweep
      // then reads spans out of the variant store, sorting each distinct
      // summary at most once for ALL routers and pairs.
      auto tv_view = [this](Variant& v) {
        if (config_.policy != TvPolicy::kFlow && v.sorted.size() != v.content.size()) {
          v.sorted = v.content;
          std::sort(v.sorted.begin(), v.sorted.end());
        }
        return TvView{v.content, v.sorted, v.counters.packets};
      };
      std::vector<Variant*> vars(nodes.size(), nullptr);
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const auto it = received_.find({r, sid, nodes[i], round});
        if (it == received_.end() || it->second.variant == kNoVariant) {
          suspect(r, routing::PathSegment{nodes[i]}, round, "withheld-summary");
        } else if (it->second.poisoned) {
          suspect(r, routing::PathSegment{nodes[i]}, round, "equivocation");
        } else {
          vars[i] = &variants_.at({sid, nodes[i], round})[it->second.variant];
        }
      }
      for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
        Variant* up = vars[i];
        Variant* down = vars[i + 1];
        if (up == nullptr || down == nullptr) continue;  // per-reporter verdict covered it
        const auto outcome =
            evaluate_tv(config_.policy, config_.thresholds, tv_view(*up), tv_view(*down));
        if (!outcome.ok) {
          suspect(r, routing::PathSegment{nodes[i], nodes[i + 1]}, round, "tv-failed");
        }
      }
    }
  }
  // Garbage-collect this round's state, then close the anti-replay
  // window: copies for this round (or older) arriving from now on are
  // replays, dropped at the first honest hop.
  received_.erase_if([round](const auto& kv) { return std::get<3>(kv.first) <= round; });
  variants_.erase_if([round](const auto& kv) { return std::get<2>(kv.first) <= round; });
  ledger_.forget_through(round);
  close_round(round);
}

std::uint64_t Pi2Engine::state_fingerprint() const {
  const std::uint64_t state[] = {received_.size(), variants_.size(), ledger_.size()};
  return fingerprint(state);
}

}  // namespace fatih::detection

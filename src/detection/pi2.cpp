#include "detection/pi2.hpp"

#include <algorithm>
#include <array>
#include <compare>

#include "crypto/mac.hpp"
#include "crypto/siphash.hpp"
#include "validation/summary.hpp"

namespace fatih::detection {

std::uint64_t summary_flood_key(const SegmentSummaryPayload& p) {
  return p.cache.flood_key([&p] {
    // Everything SegmentSummary::encode feeds except the bytes of its
    // three element lists, plus the tag. The tag is the MAC over signer ‖
    // payload, so it binds the lists: two MAC-valid copies that agree here
    // but differ there would need a tag collision. Equivocating summaries
    // differ in their tags, so BOTH flood. The summary fields keep apart
    // the unvalidated copies a reliable channel keys, such as forgeries
    // that share a fabricated tag. The fixed-size fields are widened to
    // words and hashed as one block, not field by field.
    constexpr crypto::SipKey kKey{0x50493246C00DF00DULL, 0x64697373656D3031ULL};
    const SegmentSummary& s = p.summary;
    const std::array<std::uint64_t, 10> fields{s.reporter,
                                               s.segment.length(),
                                               static_cast<std::uint64_t>(s.round),
                                               s.counters.packets,
                                               s.counters.bytes,
                                               s.content.size(),
                                               s.recon_evals.size(),
                                               s.bloom_words.size(),
                                               s.bloom_hashes,
                                               p.envelope.tag};
    crypto::SipHasher h(kKey);
    h.update(fields.data(), sizeof(fields));
    h.update(s.segment.nodes().data(), s.segment.length() * sizeof(util::NodeId));
    return h.finish();
  });
}

namespace {
std::uint64_t payload_key(const sim::ControlPayload& payload) {
  return summary_flood_key(static_cast<const SegmentSummaryPayload&>(payload));
}

/// PathSegment's order (lexicographic over the node ids) between a stored
/// segment and an encoded one.
std::strong_ordering compare(const routing::PathSegment& seg, const SegmentSummaryView& view) {
  const auto& nodes = seg.nodes();
  const std::size_t len = view.segment_length();
  for (std::size_t i = 0; i < nodes.size() && i < len; ++i) {
    if (const auto c = nodes[i] <=> view.segment_node(i); c != 0) return c;
  }
  return nodes.size() <=> len;
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
  stmt_base_.reserve(segments_.size() + 1);
  stmt_base_.push_back(0);
  for (const auto& seg : segments_) {
    stmt_base_.push_back(stmt_base_.back() + static_cast<std::uint32_t>(seg.length()));
  }

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
    std::optional<SegmentSummaryView> decoded;
    return vet(payload, decoded) == ControlVerdict::kOk;
  });
  flood_->set_invalid_fn([this](util::NodeId at, util::NodeId prev,
                                const sim::ControlPayload& payload, util::SimTime) {
    on_invalid(at, prev, payload);
  });
  flood_->set_delivery_fn([this](util::NodeId at, const sim::ControlPayload& payload,
                                  util::SimTime) { on_delivery(at, payload); });
}

ControlVerdict Pi2Engine::vet(const sim::ControlPayload& payload,
                              std::optional<SegmentSummaryView>& out,
                              std::int64_t* margin) const {
  const ControlVerdict verdict =
      guard_.check_summary(static_cast<const SegmentSummaryPayload&>(payload), out);
  if (verdict != ControlVerdict::kOk) return verdict;
  return admit_round(out->round, margin);
}

std::size_t Pi2Engine::segment_id(const SegmentSummaryView& view) const {
  const auto before = [](const routing::PathSegment& seg, const SegmentSummaryView& v) {
    return compare(seg, v) < 0;
  };
  const auto it = std::lower_bound(segments_.begin(), segments_.end(), view, before);
  if (it == segments_.end() || compare(*it, view) != 0) return segments_.size();
  return static_cast<std::size_t>(it - segments_.begin());
}

void Pi2Engine::on_invalid(util::NodeId at, util::NodeId prev,
                           const sim::ControlPayload& payload) {
  std::optional<SegmentSummaryView> decoded;
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
  std::optional<SegmentSummaryView> decoded;
  if (vet(payload, decoded) != ControlVerdict::kOk) {
    return;  // an originator's own copy, e.g. for a closed round
  }
  guard_.accept();
  const std::size_t sid = segment_id(*decoded);
  if (sid == segments_.size()) return;
  const util::NodeId reporter = decoded->reporter;
  const std::int64_t round = decoded->round;
  // The flood key includes the tag, so two conflicting signed summaries
  // for one (segment, reporter, round) BOTH circulate — the first router
  // to hold the pair files it as a proof.
  const std::tuple<std::size_t, util::NodeId, std::int64_t> key{sid, reporter, round};
  const Statement verdict = offer(ledger_, key, p.envelope, at, sid, "conflicting-summaries");

  const std::size_t statements = stmt_base_.back();
  auto [at_round, fresh] = rounds_.emplace(round, RoundStore{});
  RoundStore& store = at_round->second;
  if (fresh) {
    store.variants.resize(statements);
    store.slots.resize(net_.node_count() * statements);
  }
  const auto& nodes = segments_[sid].nodes();
  const auto pos =
      static_cast<std::size_t>(std::find(nodes.begin(), nodes.end(), reporter) - nodes.begin());
  std::uint32_t stmt = stmt_base_[sid] + static_cast<std::uint32_t>(pos);
  if (pos == nodes.size()) {  // signed for a segment it is not on
    const auto next = static_cast<std::uint32_t>(store.variants.size());
    const auto [it, added] = store.stray_ids.emplace(std::pair{sid, reporter}, next);
    if (added) store.variants.emplace_back();
    stmt = it->second;
  }
  // Dedup into the statement's variants (payload bytes are the canonical
  // serialization, so equal bytes == equal summary); the router's slot
  // just records which variant it holds. The ledger's first envelope is
  // variant 0: the statement's first delivery fills both, and evaluate()
  // drops both. So its verdict already says a copy is variant 0, and only
  // a conflicting one is compared with the others.
  auto& vars = store.variants[stmt];
  auto held = vars.end();
  if (verdict == Statement::kCopy) {
    held = vars.begin();
  } else if (verdict == Statement::kConflict) {
    held = std::find_if(vars.begin() + 1, vars.end(), [&p](const Variant& v) {
      return crypto::equal_bytes(v.payload, p.envelope.payload);
    });
  }
  const auto vidx = static_cast<std::uint32_t>(held - vars.begin());
  if (held == vars.end()) {
    if (vars.empty()) ++store.statements;
    vars.push_back(Variant{decoded->counters, decoded->content_copy(), p.envelope.payload, {}});
  }
  Slot& slot = stmt < statements ? store.slots[at * statements + stmt]
                                 : store.stray_slots[{at, stmt}];
  if (slot.variant != kNoVariant) {
    if (slot.variant != vidx) slot.poisoned = true;  // conflicting signed copies
    return;
  }
  slot.variant = vidx;
  ++store.received;
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

  const std::size_t statements = stmt_base_.back();
  const auto at_round = rounds_.find(round);
  RoundStore* store = at_round == rounds_.end() ? nullptr : &at_round->second;
  auto tv_view = [this](Variant& v) {
    if (config_.policy != TvPolicy::kFlow && v.sorted.size() != v.content.size()) {
      v.sorted = v.content;
      validation::sort_fingerprints(v.sorted, tv_scratch_.tmp);
    }
    return TvView{v.content, v.sorted, v.counters.packets};
  };
  // TV reads nothing but the two summaries, so this round runs it once per
  // distinct (upstream variant, downstream variant) pair of a statement and
  // every router holding that pair reads the outcome. The key is the
  // upstream statement and BOTH variant indices: routers holding different
  // variants of one statement each get the outcome of their own.
  util::FlatMap<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>, bool> tv_ok;
  std::vector<std::uint32_t> held;  // per segment member: the variant r holds
  // Every correct router evaluates every monitored segment: the summary
  // flood already delivered all signed summaries everywhere, which is the
  // reliable broadcast of evidence in Fig. 5.1 and yields strong
  // completeness (all correct routers suspect, not just segment members).
  for (util::NodeId r = 0; r < net_.node_count(); ++r) {
    if (!net_.is_router(r)) continue;
    for (std::size_t sid = 0; sid < segments_.size(); ++sid) {
      if (invalid[sid]) continue;
      const auto& nodes = segments_[sid].nodes();
      // Graceful degradation: the round completes on whatever summaries
      // made it. A reporter whose summary never arrived (after the
      // transport exhausted its retries) is itself suspected — withholding
      // is evidence under the protocol-faulty definition (§2.2.1) — with
      // precision 1, strictly tighter than the pair bound. Equivocation
      // (two conflicting signed summaries for one key) likewise convicts
      // the signer alone.
      held.assign(nodes.size(), kNoVariant);
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const std::size_t stmt = stmt_base_[sid] + i;
        const Slot* slot = store == nullptr ? nullptr : &store->slots[r * statements + stmt];
        if (slot == nullptr || slot->variant == kNoVariant) {
          suspect(r, routing::PathSegment{nodes[i]}, round, "withheld-summary");
        } else if (slot->poisoned) {
          suspect(r, routing::PathSegment{nodes[i]}, round, "equivocation");
        } else {
          held[i] = slot->variant;
        }
      }
      for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
        const std::uint32_t up = held[i];
        const std::uint32_t down = held[i + 1];
        if (up == kNoVariant || down == kNoVariant) continue;  // per-reporter verdict covered it
        const std::uint32_t stmt = stmt_base_[sid] + static_cast<std::uint32_t>(i);
        const auto [outcome, fresh] = tv_ok.emplace(std::tuple{stmt, up, down}, false);
        if (fresh) {
          outcome->second = evaluate_tv(config_.policy, config_.thresholds,
                                        tv_view(store->variants[stmt][up]),
                                        tv_view(store->variants[stmt + 1][down]), tv_scratch_)
                                .ok;
        }
        if (!outcome->second) {
          suspect(r, routing::PathSegment{nodes[i], nodes[i + 1]}, round, "tv-failed");
        }
      }
    }
  }
  // Garbage-collect this round's state, then close the anti-replay
  // window: copies for this round (or older) arriving from now on are
  // replays, dropped at the first honest hop.
  rounds_.erase_if([round](const auto& kv) { return kv.first <= round; });
  ledger_.forget_through(round);
  close_round(round);
}

std::uint64_t Pi2Engine::state_fingerprint() const {
  // The store sizes: filled (router, statement) slots, statements holding
  // a variant, and ledger entries.
  std::uint64_t received = 0;
  std::uint64_t statements = 0;
  for (const auto& [round, store] : rounds_) {
    received += store.received;
    statements += store.statements;
  }
  const std::uint64_t state[] = {received, statements, ledger_.size()};
  return fingerprint(state);
}

}  // namespace fatih::detection

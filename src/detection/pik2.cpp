#include "detection/pik2.hpp"

#include <algorithm>
#include <set>

#include "validation/bloom.hpp"
#include "validation/reconcile.hpp"

namespace fatih::detection {
namespace {
/// Bloom sizing (kBloom): bits per recorded packet, and hash count.
constexpr std::size_t kBloomBitsPerPacket = 10;
constexpr std::uint32_t kBloomHashes = 4;
}  // namespace

Pik2Engine::Pik2Engine(sim::Network& net, const crypto::KeyRegistry& keys, const PathCache& paths,
                       const std::vector<util::NodeId>& terminals, Pik2Config config)
    : RoundDriver(net, keys, paths, config.clock, config.rounds, obs::TraceSource::kPik2,
                  "pik2"),
      config_(config) {
  const auto used_paths = paths.tables().all_paths(terminals);
  const routing::SegmentIndex index(used_paths, config_.k);
  segments_ = index.all_pik2_segments();

  generators_.resize(net_.node_count());
  for (util::NodeId r = 0; r < net_.node_count(); ++r) {
    if (!net_.is_router(r)) continue;
    std::vector<std::pair<const routing::PathSegment*, std::size_t>> roles;
    for (const auto& seg : segments_) {
      if (seg.front() == r) roles.emplace_back(&seg, 0);
      if (seg.back() == r) roles.emplace_back(&seg, seg.length() - 1);
    }
    if (roles.empty()) continue;
    generators_[r] = std::make_unique<SummaryGenerator>(net_, keys_, r, config_.clock, paths);
    for (auto [seg, pos] : roles) {
      generators_[r]->monitor(*seg, pos, config_.sample_keep_per_256);
    }
    // Receive peer summaries.
    net_.node(r).add_control_sink(
        [this, r](const sim::Packet& p, util::NodeId, util::SimTime) {
          if (p.control != nullptr && p.control->kind() == kKindSegmentSummary) {
            on_summary(r, static_cast<const SegmentSummaryPayload&>(*p.control));
          }
        });
  }

  if (config_.reliable.enabled) {
    channel_ =
        std::make_unique<ReliableChannel>(net_, keys_, kKindSegmentSummary, config_.reliable);
    channel_->set_key_fn([](const sim::ControlPayload& payload) {
      const auto& p = static_cast<const SegmentSummaryPayload&>(payload);
      return summary_dedup_key(p.summary.reporter, p.summary.segment, p.summary.round,
                               p.kind_tag);
    });
    channel_->set_failure_fn([this](util::NodeId from, util::NodeId /*to*/,
                                    const sim::ControlPayload& payload, util::SimTime) {
      // The sender could not get its summary through within the retry
      // budget: degrade to a suspicion of the exchange segment now rather
      // than stalling until the peer's timeout fires — unless the delivery
      // failure is explained by a route change underneath the exchange, in
      // which case the round is invalidated, not accused.
      const auto& p = static_cast<const SegmentSummaryPayload&>(payload);
      if (churned(p.summary.round, p.summary.segment)) {
        invalidate(p.summary.round, 1);
        return;
      }
      suspect(from, p.summary.segment, p.summary.round, "exchange-undeliverable");
    });
  }
}

void Pik2Engine::start() {
  start_rounds(
      config_.collect_settle, config_.exchange_timeout,
      [this](std::int64_t round) { exchange(round); },
      [this](std::int64_t round) { evaluate(round); });
}

std::vector<routing::PathSegment> Pik2Engine::monitored_by(util::NodeId r) const {
  std::vector<routing::PathSegment> out;
  for (const auto& seg : segments_) {
    if (seg.is_end(r)) out.push_back(seg);
  }
  return out;
}

void Pik2Engine::exchange(std::int64_t round) {
  for (const auto& seg : segments_) {
    for (const util::NodeId r : {seg.front(), seg.back()}) {
      if (generators_[r] == nullptr) continue;
      SegmentSummary summary = generators_[r]->take_summary(seg, round);
      own_[{r, seg, round}] = OwnRecord{summary.counters, summary.content};
      auto mut = mutators_.find(r);
      if (mut != mutators_.end()) {
        if (!mut->second(summary)) continue;  // protocol-faulty: withhold
      }
      if (config_.compression == SummaryCompression::kBloom) {
        // Bloom digest (§2.4.1): size the filter for the reference rate
        // seen this round, with a floor so empty rounds stay comparable.
        const std::size_t bits =
            std::max<std::size_t>(512, summary.content.size() * kBloomBitsPerPacket);
        validation::BloomFilter filter(bits, kBloomHashes);
        for (auto fp : summary.content) filter.insert(fp);
        summary.bloom_words = filter.words();
        summary.bloom_hashes = kBloomHashes;
        summary.content.clear();
      } else if (config_.compression == SummaryCompression::kReconcile) {
        // Appendix A: ship O(d) evaluations instead of O(n) fingerprints.
        const auto points = validation::evaluation_points(config_.reconcile_bound + 4);
        std::set<std::uint64_t> elems;
        for (auto fp : summary.content) elems.insert(validation::to_field(fp));
        const std::vector<std::uint64_t> elem_vec(elems.begin(), elems.end());
        summary.recon_evals = validation::char_poly_evaluations(elem_vec, points);
        summary.counters.packets = elem_vec.size();  // distinct-set cardinality
        summary.content.clear();
      }
      send_summary(r, (r == seg.front()) ? seg.back() : seg.front(), std::move(summary));
    }
  }
}

void Pik2Engine::send_summary(util::NodeId from, util::NodeId peer, SegmentSummary summary) {
  auto payload = std::make_shared<SegmentSummaryPayload>();
  payload->kind_tag = kKindSegmentSummary;
  payload->envelope = crypto::sign(keys_, from, summary.to_bytes());
  payload->summary = std::move(summary);
  const std::uint32_t bytes = payload->summary.wire_bytes();
  exchange_bytes_ += sim::kHeaderBytes + bytes;
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   exchange(net_.sim().now(), obs::TraceSource::kPik2,
                            obs::TraceCode::kExchangeSend, from, peer, payload->summary.round,
                            bytes));
  // The exchange is routed normally; the stable route between the two
  // ends IS the segment (subpaths of shortest paths), so a faulty interior
  // router sits on the exchange path and can only cause a timeout — which
  // is itself a detection (§5.2).
  send_control(channel_.get(), from, peer, std::move(payload), bytes);
}

void Pik2Engine::on_summary(util::NodeId at, const SegmentSummaryPayload& payload) {
  std::optional<SegmentSummary> decoded;
  ControlVerdict verdict = guard_.check_summary(payload, decoded);
  if (verdict == ControlVerdict::kOk) verdict = admit_round(decoded->round);
  if (verdict != ControlVerdict::kOk) {
    // Unicast exchange: honest interior routers forward blindly, so a bad
    // summary has no attributable hop — drop and count. An interior
    // tamperer starves the exchange instead, which surfaces as the
    // whole-segment timeout suspicion (§5.2 semantics); a stale replay is
    // inert because the round it argues about is already closed.
    guard_.reject(at, util::kInvalidNode, decoded.has_value() ? decoded->round : -1, verdict,
                  nullptr);
    return;
  }
  const auto& seg = decoded->segment;
  if (!seg.is_end(at) || !seg.is_end(decoded->reporter) || decoded->reporter == at) return;
  const std::tuple<util::NodeId, routing::PathSegment, std::int64_t> key{at, seg,
                                                                         decoded->round};
  // Two MAC-valid, conflicting summaries from the same end for the same
  // (segment, round) are a self-incriminating equivocation proof.
  const Statement offered =
      offer(ledger_, key, payload.envelope, at, 0, "conflicting-summaries");
  if (offered == Statement::kConflict) {
    suspect(at, routing::PathSegment{decoded->reporter}, decoded->round, "equivocation");
  }
  if (offered != Statement::kFirst) return;  // the first verified summary stays authoritative
  guard_.accept();
  peer_[key] = std::move(*decoded);
}

void Pik2Engine::evaluate(std::int64_t round) {
  std::uint64_t invalidated = 0;
  for (const auto& seg : segments_) {
    // Churn awareness: rounds straddling a route change, or a segment off
    // the live path after a reroute, are not judged.
    if (churned(round, seg)) {
      ++invalidated;
      continue;
    }
    for (const util::NodeId r : {seg.front(), seg.back()}) {
      if (generators_[r] == nullptr) continue;
      const auto own_it = own_.find({r, seg, round});
      if (own_it == own_.end()) continue;
      const auto peer_it = peer_.find({r, seg, round});
      if (peer_it == peer_.end()) {
        FATIH_TRACE_EMIT(net_.sim().trace(),
                         exchange(net_.sim().now(), obs::TraceSource::kPik2,
                                  obs::TraceCode::kExchangeTimeout, r,
                                  r == seg.front() ? seg.back() : seg.front(), round));
        suspect(r, seg, round, "exchange-timeout");
        continue;
      }
      if (peer_it->second.bloom_form()) {
        // Rebuild our own filter with the peer's shape and estimate the
        // symmetric difference from the XOR population.
        const auto& peer_summary = peer_it->second;
        validation::BloomFilter mine(peer_summary.bloom_words.size() * 64,
                                     peer_summary.bloom_hashes);
        for (auto fp : own_it->second.content) mine.insert(fp);
        const auto theirs = validation::BloomFilter::from_words(peer_summary.bloom_words,
                                                                peer_summary.bloom_hashes);
        const auto est = validation::BloomFilter::estimate_symmetric_difference(mine, theirs);
        const double diff = est.value_or(1e9);  // saturated filter: alarm
        const auto allowance =
            std::max(static_cast<double>(config_.thresholds.max_lost_packets),
                     config_.thresholds.max_lost_fraction *
                         static_cast<double>(own_it->second.content.size())) +
            static_cast<double>(config_.thresholds.max_fabricated);
        // The estimate cannot split lost from fabricated; compare the
        // total difference against the combined allowance (plus the
        // estimator's own noise floor).
        if (diff > allowance + 4.0) suspect(r, seg, round, "tv-failed");
        continue;
      }
      if (peer_it->second.reconciled_form()) {
        // Reconcile the peer's evaluations against our own content; the
        // recovered difference feeds the same thresholds.
        std::set<std::uint64_t> own_elems;
        for (auto fp : own_it->second.content) {
          own_elems.insert(validation::to_field(fp));
        }
        const std::vector<std::uint64_t> local(own_elems.begin(), own_elems.end());
        const auto points = validation::evaluation_points(config_.reconcile_bound + 4);
        const auto result = validation::reconcile(
            local, peer_it->second.recon_evals,
            static_cast<std::size_t>(peer_it->second.counters.packets), points,
            config_.reconcile_bound);
        bool ok = false;  // a difference beyond the bound is always suspicious
        if (result.has_value()) {
          // only_local = packets we have that the peer lacks; orientation
          // decides which side is "lost" vs "fabricated".
          const bool we_are_upstream = r == seg.front();
          const auto here_only = result->only_local.size();
          const auto there_only = result->only_remote.size();
          const auto allowance = std::max(
              config_.thresholds.max_lost_packets,
              static_cast<std::uint64_t>(config_.thresholds.max_lost_fraction *
                                         static_cast<double>(local.size())));
          ok = (we_are_upstream ? here_only : there_only) <= allowance &&
               (we_are_upstream ? there_only : here_only) <= config_.thresholds.max_fabricated;
        }
        if (!ok) suspect(r, seg, round, "tv-failed");
        continue;
      }
      // Orient: upstream summary is the segment's front end. Spans into
      // the round stores; evaluate_tv sorts only the stretch where the two
      // streams differ, into the engine's reused scratch.
      const TvView own_view{own_it->second.content, {}, own_it->second.counters.packets};
      const TvView peer_view{peer_it->second.content, {}, peer_it->second.counters.packets};
      const bool we_are_upstream = r == seg.front();
      const auto outcome =
          evaluate_tv(config_.policy, config_.thresholds, we_are_upstream ? own_view : peer_view,
                      we_are_upstream ? peer_view : own_view, tv_scratch_);
      if (!outcome.ok) suspect(r, seg, round, "tv-failed");
    }
  }
  // Drop the round's state, then close the anti-replay window.
  own_.erase_if([round](const auto& kv) { return std::get<2>(kv.first) <= round; });
  peer_.erase_if([round](const auto& kv) { return std::get<2>(kv.first) <= round; });
  ledger_.forget_through(round);
  invalidate(round, invalidated);
  close_round(round);
}

void Pik2Engine::inject_summary(util::NodeId from, const SegmentSummary& summary) {
  const auto& seg = summary.segment;
  send_summary(from, (from == seg.front()) ? seg.back() : seg.front(), summary);
}

std::uint64_t Pik2Engine::state_fingerprint() const {
  const std::uint64_t state[] = {own_.size(), peer_.size(), exchange_bytes_};
  return fingerprint(state);
}

}  // namespace fatih::detection

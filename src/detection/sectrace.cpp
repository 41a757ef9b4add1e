#include "detection/sectrace.hpp"

#include <algorithm>

#include "crypto/mac.hpp"
#include "detection/tv.hpp"
#include "util/log.hpp"

namespace fatih::detection {

namespace {
routing::PathSegment prefix_of(const routing::Path& path, std::size_t upto) {
  return routing::PathSegment(
      std::vector<util::NodeId>(path.begin(), path.begin() + static_cast<std::ptrdiff_t>(upto) + 1));
}
}  // namespace

SecTraceDetector::SecTraceDetector(sim::Network& net, const crypto::KeyRegistry& keys,
                                   const PathCache& paths, routing::Path path,
                                   SecTraceConfig config)
    : net_(net), keys_(keys), path_(std::move(path)), config_(config) {
  generators_.resize(path_.size());
  // The source records its transmissions into every prefix; router i
  // records receipts off prefix i (it is that prefix's sink).
  generators_[0] = std::make_unique<SummaryGenerator>(net_, keys_, path_[0], config_.clock,
                                                      paths);
  for (std::size_t i = 1; i < path_.size(); ++i) {
    generators_[i] = std::make_unique<SummaryGenerator>(net_, keys_, path_[i], config_.clock,
                                                        paths);
    const auto prefix = prefix_of(path_, i);
    if (prefix.length() >= 2) {
      generators_[0]->monitor(prefix, 0);
      generators_[i]->monitor(prefix, i);
    }
  }

  // Replies arrive at the source as signed summaries.
  net_.node(path_[0]).add_control_sink([this](const sim::Packet& p, util::NodeId,
                                              util::SimTime) {
    if (p.control == nullptr || p.control->kind() != kKindSecTraceSummary) return;
    const auto& payload = static_cast<const SegmentSummaryPayload&>(*p.control);
    if (!crypto::verify(keys_, payload.envelope)) return;
    if (payload.envelope.signer != payload.summary.reporter) return;
    if (!crypto::equal_bytes(payload.envelope.payload, payload.summary.to_bytes())) return;
    replies_[payload.summary.round] = payload.summary;
  });
}

void SecTraceDetector::start() {
  const auto first = config_.clock.interval_of(0).end + config_.collect_settle;
  net_.sim().schedule_at(first, [this] { run_round(0); });
}

void SecTraceDetector::run_round(std::int64_t round) {
  const std::size_t target = target_;
  const auto prefix = prefix_of(path_, target);

  // The target ships its summary of the just-finished round to the source
  // (signed; routed through the very path being probed).
  SegmentSummary reply = generators_[target]->take_summary(prefix, round);
  auto payload = std::make_shared<SegmentSummaryPayload>();
  payload->kind_tag = kKindSecTraceSummary;
  payload->envelope = crypto::sign(keys_, path_[target], reply.to_bytes());
  payload->summary = std::move(reply);
  sim::PacketHeader hdr;
  hdr.src = path_[target];
  hdr.dst = path_[0];
  hdr.proto = sim::Protocol::kControl;
  sim::Packet p = net_.make_packet(hdr, payload->summary.wire_bytes());
  p.control = std::move(payload);
  net_.router(path_[target]).originate(p);

  net_.sim().schedule_in(config_.reply_timeout,
                         [this, round, target] { evaluate(round, target); });
  const auto next = config_.clock.interval_of(round + 1).end + config_.collect_settle;
  net_.sim().schedule_at(next, [this, round] { run_round(round + 1); });
}

void SecTraceDetector::evaluate(std::int64_t round, std::size_t target) {
  const auto prefix = prefix_of(path_, target);
  const SegmentSummary own = generators_[0]->take_summary(prefix, round);

  bool consistent = false;
  bool had_reply = false;
  if (auto it = replies_.find(round); it != replies_.end() && it->second.segment == prefix) {
    had_reply = true;
    TvThresholds th;
    th.max_lost_packets = config_.max_lost_packets;
    const auto outcome = evaluate_tv(TvPolicy::kContent, th, own, it->second);
    consistent = outcome.ok;
    replies_.erase(it);
  }

  if (consistent) {
    // Advance toward the destination; wrap for continuous monitoring.
    if (target + 1 < path_.size()) {
      target_ = target + 1;
    } else {
      completed_ = true;
      target_ = 1;
    }
    return;
  }

  // §3.6: the source blames the link between the first unvalidated router
  // and its (previously validated) upstream neighbor — the attribution
  // the dissertation shows a well-timed upstream attacker can exploit.
  Suspicion s;
  s.reporter = path_[0];
  s.segment = routing::PathSegment{path_[target - 1], path_[target]};
  s.interval = config_.clock.interval_of(round);
  s.cause = had_reply ? "sectrace-mismatch" : "sectrace-no-reply";
  util::log(util::LogLevel::kInfo, "sectrace", "%s", s.to_string().c_str());
  suspicions_.push_back(s);
  // Restart the sweep from the first hop.
  target_ = 1;
}

}  // namespace fatih::detection

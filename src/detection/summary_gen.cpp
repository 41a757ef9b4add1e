#include "detection/summary_gen.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace fatih::detection {

SummaryGenerator::SummaryGenerator(sim::Network& net, const crypto::KeyRegistry& keys,
                                   util::NodeId router, RoundClock clock, const PathCache& paths)
    : net_(net),
      keys_(keys),
      router_(router),
      clock_(clock),
      paths_(paths),
      batch_width_(crypto::simd_batch_width()) {
  auto& r = net_.router(router_);
  r.add_forward_tap([this](const sim::Packet& p, util::NodeId prev, std::size_t out_iface,
                           util::SimTime now) { on_forward(p, prev, out_iface, now); });
  r.add_receive_tap([this](const sim::Packet& p, util::NodeId prev, util::SimTime now) {
    on_receive(p, prev, now);
  });
}

void SummaryGenerator::monitor(const routing::PathSegment& segment, std::size_t position,
                               std::uint32_t sample_keep_per_256) {
  const auto& seg = segment.nodes();
  if (seg.size() < 2 || position >= seg.size() || seg[position] != router_) {
    throw std::invalid_argument("SummaryGenerator at " + util::node_name(router_) +
                                " cannot monitor " + segment.to_string() + " at position " +
                                std::to_string(position));
  }
  const std::size_t idx = roles_.size();
  Role role;
  role.segment = segment;
  role.position = position;
  role.sample_keep = sample_keep_per_256;
  // All routers of a segment share the key derived from its two ends, so
  // their fingerprints for the same packet agree.
  role.fp = validation::FingerprintHasher(keys_.fingerprint_key(segment.front(), segment.back()));
  roles_.push_back(std::move(role));
  const bool sink = position + 1 == seg.size();
  auto& index = sink ? sink_roles_ : send_roles_;
  const std::pair<util::NodeId, std::size_t> entry{seg[sink ? position - 1 : position + 1], idx};
  index.insert(std::upper_bound(index.begin(), index.end(), entry), entry);
}

bool SummaryGenerator::applies(const Role& role, const sim::Packet& p, util::NodeId prev) const {
  if (role.position > 0 && prev != role.segment.nodes()[role.position - 1]) return false;
  // The packet's stable path must contain the segment, i.e. this traffic
  // genuinely traverses pi (mis-addressed or fabricated traffic that does
  // not belong to pi is not charged to it). The path is the one in force
  // when the packet was created: under churn, traffic launched onto the
  // old path is judged against the old path, not the post-reroute one.
  const auto& path = paths_.path_at(p.hdr.src, p.hdr.dst, p.created);
  return role.segment.within(path);
}

void SummaryGenerator::record(std::size_t idx, const sim::Packet& p) {
  // Defer the hash: buffer the invariant view and flush a lane-width batch
  // through the SIMD kernels. Sampling needs the fingerprint, so it is
  // applied at flush time, in the buffered (arrival) order.
  Role& role = roles_[idx];
  role.pending.push_back(validation::PacketInvariant::from_packet(p));
  role.pending_rounds.push_back(clock_.round_of(p.created));
  if (role.pending.size() >= batch_width_) flush_role(idx);
}

void SummaryGenerator::flush_role(std::size_t idx) {
  Role& role = roles_[idx];
  if (role.pending.empty()) return;
  fp_scratch_.resize(role.pending.size());
  role.fp.hash_batch(role.pending.data(), role.pending.size(), fp_scratch_.data());
  // A batch almost always falls in one round: look its bucket up again
  // only when the round changes.
  Bucket* bucket = nullptr;
  std::int64_t bucket_round = 0;
  for (std::size_t i = 0; i < role.pending.size(); ++i) {
    const validation::Fingerprint fp = fp_scratch_[i];
    if (role.sample_keep < 256 && (fp & 0xFF) >= role.sample_keep) continue;
    if (bucket == nullptr || role.pending_rounds[i] != bucket_round) {
      bucket_round = role.pending_rounds[i];
      bucket = &buckets_[{idx, bucket_round}];
    }
    bucket->counters.add(role.pending[i].size_bytes);
    bucket->content.push_back(fp);
  }
  role.pending.clear();
  role.pending_rounds.clear();
}

void SummaryGenerator::on_forward(const sim::Packet& p, util::NodeId prev, std::size_t out_iface,
                                  util::SimTime /*now*/) {
  if (!enabled_ || p.is_control()) return;  // only data-plane traffic is validated
  record_under(send_roles_, net_.router(router_).interface(out_iface).peer(), p, prev);
}

void SummaryGenerator::on_receive(const sim::Packet& p, util::NodeId prev, util::SimTime /*now*/) {
  if (!enabled_ || p.is_control()) return;
  record_under(sink_roles_, prev, p, prev);
}

void SummaryGenerator::record_under(const std::vector<std::pair<util::NodeId, std::size_t>>& index,
                                    util::NodeId neighbour, const sim::Packet& p,
                                    util::NodeId prev) {
  auto it = std::lower_bound(index.begin(), index.end(),
                             std::pair<util::NodeId, std::size_t>{neighbour, 0});
  for (; it != index.end() && it->first == neighbour; ++it) {
    if (applies(roles_[it->second], p, prev)) record(it->second, p);
  }
}

SegmentSummary SummaryGenerator::take_summary(const routing::PathSegment& segment,
                                              std::int64_t round) {
  SegmentSummary out;
  out.reporter = router_;
  out.segment = segment;
  out.round = round;
  for (std::size_t idx = 0; idx < roles_.size(); ++idx) {
    if (roles_[idx].segment != segment) continue;
    flush_role(idx);  // drain the partial batch before reading the bucket
    auto it = buckets_.find({idx, round});
    if (it == buckets_.end()) break;
    out.counters = it->second.counters;
    out.content = std::move(it->second.content);
    buckets_.erase(it);
    break;
  }
  return out;
}

}  // namespace fatih::detection

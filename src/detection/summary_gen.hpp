// Traffic Summary Generator (dissertation Fig. 5.5).
//
// Sits on a router's forwarding path via packet taps and accumulates
// per-(segment, round) summaries of the traffic the router handled along
// each monitored path-segment. The packet's stable path (from the routing
// oracle) decides which segments a packet belongs to; mutable fields are
// excluded from fingerprints.
//
// Roles: at interior/source positions of a segment the router records at
// forward time (what it sent onward); at the sink position it records at
// receive time (what arrived off the segment). Roles are indexed by the
// neighbour that decides them — the next hop for a sending role, the
// previous hop for a sink — so a packet reaches only the roles whose
// neighbours it touches.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "crypto/keys.hpp"
#include "detection/messages.hpp"
#include "detection/path_cache.hpp"
#include "detection/types.hpp"
#include "sim/network.hpp"
#include "util/flat_map.hpp"
#include "validation/fingerprint.hpp"

namespace fatih::detection {

/// Per-router summary generator.
class SummaryGenerator {
 public:
  SummaryGenerator(sim::Network& net, const crypto::KeyRegistry& keys, util::NodeId router,
                   RoundClock clock, const PathCache& paths);
  SummaryGenerator(const SummaryGenerator&) = delete;
  SummaryGenerator& operator=(const SummaryGenerator&) = delete;

  /// Starts recording for `segment`, in which this router sits at
  /// `position`. `sample_keep_per_256`: record a packet only when its
  /// fingerprint falls into the agreed sampling range (256 = keep all;
  /// Pi(k+2)'s subsampling, §5.2.1). Throws std::invalid_argument unless
  /// the segment has at least two routers and names this router at
  /// `position`.
  void monitor(const routing::PathSegment& segment, std::size_t position,
               std::uint32_t sample_keep_per_256 = 256);

  /// Removes and returns the summary for (segment, round); an empty
  /// summary if nothing was recorded.
  [[nodiscard]] SegmentSummary take_summary(const routing::PathSegment& segment,
                                            std::int64_t round);

  [[nodiscard]] util::NodeId router() const { return router_; }

  /// Disables recording (taps stay registered but become no-ops); used
  /// when a monitoring set is retired after re-commissioning.
  void set_enabled(bool enabled) { enabled_ = enabled; }

 private:
  struct Role {
    routing::PathSegment segment;
    std::size_t position = 0;
    std::uint32_t sample_keep = 256;
    /// Schedule-cached hasher for the segment key (record() runs per packet).
    validation::FingerprintHasher fp{crypto::SipKey{}};
    /// Packets awaiting fingerprinting, in arrival order. Invariant views
    /// are contiguous (hash_batch's stride requirement); pending_rounds is
    /// the parallel per-packet round index. Hashed lane-width at a time —
    /// flush_role drains the batch through the SIMD SipHash kernels, then
    /// applies sampling and bucket insertion in the buffered order, so
    /// summaries are byte-identical to the per-packet path.
    std::vector<validation::PacketInvariant> pending;
    std::vector<std::int64_t> pending_rounds;
  };
  struct Bucket {
    validation::CounterSummary counters;
    std::vector<validation::Fingerprint> content;  // forwarding order
  };

  void on_forward(const sim::Packet& p, util::NodeId prev, std::size_t out_iface,
                  util::SimTime now);
  void on_receive(const sim::Packet& p, util::NodeId prev, util::SimTime now);
  /// Records `p` into every role `index` holds under `neighbour` that
  /// applies to it.
  void record_under(const std::vector<std::pair<util::NodeId, std::size_t>>& index,
                    util::NodeId neighbour, const sim::Packet& p, util::NodeId prev);
  void record(std::size_t idx, const sim::Packet& p);
  /// Hashes the role's pending batch and moves the results into the
  /// per-round buckets. Called when the batch reaches lane width and
  /// before any summary is taken.
  void flush_role(std::size_t idx);
  /// The checks left once the index has matched the role's deciding
  /// neighbour: the previous hop of an interior role, and the packet's
  /// stable path containing the segment.
  [[nodiscard]] bool applies(const Role& role, const sim::Packet& p, util::NodeId prev) const;

  sim::Network& net_;
  const crypto::KeyRegistry& keys_;
  util::NodeId router_;
  RoundClock clock_;
  const PathCache& paths_;
  bool enabled_ = true;
  /// Lane width of the active SipHash dispatch level, sampled once at
  /// construction; pending batches flush when they reach it.
  std::size_t batch_width_;
  std::vector<Role> roles_;
  /// (neighbour, role index), sorted: sending roles under the segment's
  /// next hop, sink roles under its previous hop.
  std::vector<std::pair<util::NodeId, std::size_t>> send_roles_;
  std::vector<std::pair<util::NodeId, std::size_t>> sink_roles_;
  std::vector<validation::Fingerprint> fp_scratch_;  // flush_role digest buffer
  // Keyed by (role index, round); flat store, std::map iteration order.
  util::FlatMap<std::pair<std::size_t, std::int64_t>, Bucket> buckets_;
};

}  // namespace fatih::detection

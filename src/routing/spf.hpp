// Shortest-path-first routing computations.
//
// All routers compute next hops from the same deterministic rule, so
// hop-by-hop forwarding yields a single consistent loop-free path per
// (source, destination) pair — the dissertation's assumption that "a link
// state routing protocol chooses only one path between any two routers"
// (§5.1.1) with deterministic tie-breaking standing in for the vendors'
// deterministic ECMP hash (§4.1).
//
// The policy-aware variant computes routes that avoid suspected
// path-segments (the response mechanism, §2.4.3/§5.3.1): forwarding state
// is keyed by (previous hop, destination), which is exactly enough to
// avoid any banned segment of length <= 3. Longer banned segments are
// handled conservatively by banning each interior length-3 window.
//
// Both run the same engine (spf.cpp): a CSR copy of the topology and
// Dial's bucket queue, one reverse SPF per destination.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "routing/graph.hpp"
#include "routing/segments.hpp"

namespace fatih::routing {

/// Infinite distance marker.
inline constexpr std::uint64_t kUnreachable = std::numeric_limits<std::uint64_t>::max();

/// All-pairs routing state: one flat node-major N x N next-hop table plus
/// the matching distances. Row r is router r's forwarding table. The next
/// hop is the neighbour on a shortest path with the smallest id, the same
/// rule at every router, so following next hops from any node traces one
/// loop-free path per ordered pair.
class RoutingTables {
 public:
  /// Runs one reverse SPF per destination over `topo` (metrics are
  /// symmetric in this system, so neighbors(n) is used directly).
  explicit RoutingTables(const Topology& topo);

  [[nodiscard]] std::size_t node_count() const { return n_; }

  /// Router `r`'s forwarding table: entry d is r's next hop toward d,
  /// kInvalidNode for d == r and for an unreachable d. Empty if r is out
  /// of range.
  [[nodiscard]] std::span<const util::NodeId> row(util::NodeId r) const;

  /// r's next hop toward `dst`; kInvalidNode when r == dst, when dst is
  /// unreachable, or when either is out of range.
  [[nodiscard]] util::NodeId next_hop(util::NodeId r, util::NodeId dst) const;

  /// Cost of the path r -> dst; kUnreachable when there is none.
  [[nodiscard]] std::uint64_t distance(util::NodeId r, util::NodeId dst) const;

  /// The unique path src -> dst by following next hops; empty if
  /// unreachable. Includes both endpoints.
  [[nodiscard]] Path path(util::NodeId src, util::NodeId dst) const;

  /// Every in-use path among the given terminal nodes (ordered pairs).
  [[nodiscard]] std::vector<Path> all_paths(const std::vector<util::NodeId>& terminals) const;

 private:
  std::size_t n_ = 0;
  std::vector<util::NodeId> next_;   ///< next_[r * n_ + dst]
  std::vector<std::uint64_t> dist_;  ///< dist_[r * n_ + dst]
};

/// Policy routes that avoid banned path-segments.
///
/// State is (prev, node): the cost-to-destination of a packet sitting at
/// `node` having arrived from neighbour `prev`, or originated there
/// (prev == node). A banned segment <a,b,c> forbids the transition b->c
/// for packets arriving from a; a banned segment <a,b> forbids the
/// directed link a->b outright; a banned single node forbids nothing.
/// Each node has one state per neighbour plus its origin state, so the
/// table holds N x (2E + N) next hops for E duplex links.
class PolicyRoutes {
 public:
  /// `banned` segments of length 2 or 3 are enforced exactly; longer
  /// segments are decomposed into their length-3 windows (conservative:
  /// strictly more traffic is diverted, never less). Metrics must be
  /// symmetric, as for RoutingTables: a node's neighbours are the nodes
  /// a packet can arrive from.
  PolicyRoutes(const Topology& topo, const std::vector<PathSegment>& banned);

  /// Next hop at `node` toward `dst` for a packet that arrived from
  /// `prev`; for locally-originated packets pass prev == node.
  /// nullopt when no compliant route exists, when node == dst, or when
  /// `prev` is neither `node` nor one of its neighbours.
  [[nodiscard]] std::optional<util::NodeId> next_hop(util::NodeId prev, util::NodeId node,
                                                     util::NodeId dst) const;

  /// The path taken from src to dst under these policies (empty if none).
  [[nodiscard]] Path path(util::NodeId src, util::NodeId dst) const;

 private:
  static constexpr std::uint32_t kNoState = std::numeric_limits<std::uint32_t>::max();

  /// The state "at `node`, arrived from `prev`": node's CSR entry for
  /// neighbour prev, its origin state when prev == node, kNoState when
  /// prev is neither or either is out of range.
  [[nodiscard]] std::uint32_t state(util::NodeId prev, util::NodeId node) const;
  [[nodiscard]] std::size_t state_count() const { return edges_.size() + n_; }

  std::size_t n_ = 0;
  /// CSR copy of the topology. State i < 2E is node v's edge entry i
  /// (first_[v] <= i < first_[v + 1]): at v, arrived from edges_[i].to.
  /// State 2E + v is v's origin state.
  std::vector<std::uint32_t> first_;
  std::vector<Topology::Edge> edges_;
  std::vector<util::NodeId> next_;  ///< next_[dst * state_count() + state]
};

}  // namespace fatih::routing

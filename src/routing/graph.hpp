// Topology graph used by the routing computations.
//
// A directed multigraph-free graph with symmetric integer metrics. This is
// the "global view of the current network topology" that the link-state
// protocol gives every router (dissertation §4.1); the detection protocols
// derive their monitored path-segments from it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace fatih::sim {
class Network;
}

namespace fatih::routing {

/// Weighted directed graph over dense NodeIds.
class Topology {
 public:
  struct Edge {
    util::NodeId to;
    std::uint32_t metric;
  };

  /// Ensures node ids 0..id exist.
  void ensure_node(util::NodeId id);

  /// OSPF's link cost range (RFC 2328 §A.4.2): 0 would read as "no edge"
  /// to metric(), and SPF sizes its bucket ring by the largest metric.
  static constexpr std::uint32_t kMinMetric = 1;
  static constexpr std::uint32_t kMaxMetric = 65535;

  /// Adds a directed edge (idempotent for identical (from,to); keeps the
  /// first metric). Throws std::invalid_argument for a metric outside
  /// [kMinMetric, kMaxMetric].
  void add_edge(util::NodeId from, util::NodeId to, std::uint32_t metric);

  /// Adds both directions with the same metric.
  void add_duplex(util::NodeId a, util::NodeId b, std::uint32_t metric);

  [[nodiscard]] std::size_t node_count() const { return adj_.size(); }
  [[nodiscard]] std::size_t edge_count() const;
  [[nodiscard]] std::span<const Edge> neighbors(util::NodeId n) const;
  [[nodiscard]] bool has_edge(util::NodeId from, util::NodeId to) const;
  /// Metric of edge from->to; 0 if absent.
  [[nodiscard]] std::uint32_t metric(util::NodeId from, util::NodeId to) const;
  /// Out-degree of n.
  [[nodiscard]] std::size_t degree(util::NodeId n) const;

  /// Snapshot of the simulated network's *usable* adjacencies: links that
  /// are admin-down or touch a crashed router are excluded.
  [[nodiscard]] static Topology from_network(const sim::Network& net);

 private:
  std::vector<std::vector<Edge>> adj_;
};

}  // namespace fatih::routing

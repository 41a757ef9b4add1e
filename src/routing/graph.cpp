#include "routing/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/network.hpp"

namespace fatih::routing {

void Topology::ensure_node(util::NodeId id) {
  if (id >= adj_.size()) adj_.resize(id + 1);
}

void Topology::add_edge(util::NodeId from, util::NodeId to, std::uint32_t metric) {
  if (metric < kMinMetric || metric > kMaxMetric) {
    throw std::invalid_argument("link metric " + std::to_string(metric) + " outside [1, 65535]");
  }
  ensure_node(std::max(from, to));
  auto& edges = adj_[from];
  if (std::any_of(edges.begin(), edges.end(), [to](const Edge& e) { return e.to == to; })) {
    return;
  }
  edges.push_back(Edge{to, metric});
}

void Topology::add_duplex(util::NodeId a, util::NodeId b, std::uint32_t metric) {
  add_edge(a, b, metric);
  add_edge(b, a, metric);
}

std::size_t Topology::edge_count() const {
  std::size_t n = 0;
  for (const auto& edges : adj_) n += edges.size();
  return n;
}

std::span<const Topology::Edge> Topology::neighbors(util::NodeId n) const {
  if (n >= adj_.size()) return {};
  return adj_[n];
}

bool Topology::has_edge(util::NodeId from, util::NodeId to) const {
  for (const Edge& e : neighbors(from)) {
    if (e.to == to) return true;
  }
  return false;
}

std::uint32_t Topology::metric(util::NodeId from, util::NodeId to) const {
  for (const Edge& e : neighbors(from)) {
    if (e.to == to) return e.metric;
  }
  return 0;
}

std::size_t Topology::degree(util::NodeId n) const { return neighbors(n).size(); }

Topology Topology::from_network(const sim::Network& net) {
  Topology t;
  if (net.node_count() > 0) t.ensure_node(static_cast<util::NodeId>(net.node_count() - 1));
  for (const auto& adj : net.adjacencies()) {
    // Live view: links that are admin-down or touch a crashed node are not
    // part of the topology (identical to the old behavior when nothing has
    // failed).
    if (!net.link_usable(adj.from, adj.to)) continue;
    t.add_edge(adj.from, adj.to, adj.metric);
  }
  return t;
}

}  // namespace fatih::routing

#include "routing/spf.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

namespace fatih::routing {

RoutingTables::RoutingTables(const Topology& topo)
    : n_(topo.node_count()), next_(n_ * n_, util::kInvalidNode), dist_(n_ * n_, kUnreachable) {
  // CSR copy of the adjacency: node v's edges are edges[first[v] ..
  // first[v + 1]), in neighbors(v) order.
  std::vector<std::uint32_t> first(n_ + 1, 0);
  std::vector<Topology::Edge> edges;
  edges.reserve(topo.edge_count());
  std::uint32_t max_metric = 0;
  for (util::NodeId v = 0; v < n_; ++v) {
    for (const Topology::Edge& e : topo.neighbors(v)) {
      assert(e.metric >= Topology::kMinMetric);  // add_edge enforces the range
      edges.push_back(e);
      max_metric = std::max(max_metric, e.metric);
    }
    first[v + 1] = static_cast<std::uint32_t>(edges.size());
  }

  // Dial's bucket queue: every queued distance lies in [cur, cur +
  // max_metric], so a ring of max_metric + 1 buckets holds them apart, and
  // a relaxation (metric >= 1) never lands in the bucket being drained. A
  // node queued again at a smaller distance leaves a stale entry behind,
  // skipped because its distance no longer equals cur. All buffers are
  // reused across destinations.
  std::vector<std::vector<util::NodeId>> ring(std::size_t{max_metric} + 1);
  std::vector<std::uint64_t> dist(n_);
  std::vector<util::NodeId> next(n_);
  for (util::NodeId dst = 0; dst < n_; ++dst) {
    std::fill(dist.begin(), dist.end(), kUnreachable);
    std::fill(next.begin(), next.end(), util::kInvalidNode);
    dist[dst] = 0;
    ring[0].push_back(dst);
    std::size_t queued = 1;
    std::size_t slot = 0;  // cur % ring.size()
    for (std::uint64_t cur = 0; queued > 0; ++cur) {
      std::vector<util::NodeId>& bucket = ring[slot];
      queued -= bucket.size();
      for (const util::NodeId v : bucket) {
        if (dist[v] != cur) continue;
        // Metrics are symmetric, so v's out-edges relax the reverse edges
        // u -> v. Among equal-cost neighbours the smaller id wins.
        for (std::uint32_t i = first[v]; i < first[v + 1]; ++i) {
          const util::NodeId u = edges[i].to;
          const std::uint64_t nd = cur + edges[i].metric;
          if (nd < dist[u]) {
            dist[u] = nd;
            next[u] = v;
            std::size_t to = slot + edges[i].metric;
            if (to >= ring.size()) to -= ring.size();
            ring[to].push_back(u);
            ++queued;
          } else if (nd == dist[u] && v < next[u]) {
            next[u] = v;
          }
        }
      }
      bucket.clear();
      if (++slot == ring.size()) slot = 0;
    }
    for (std::size_t u = 0; u < n_; ++u) {
      dist_[u * n_ + dst] = dist[u];
      next_[u * n_ + dst] = next[u];
    }
  }
}

std::span<const util::NodeId> RoutingTables::row(util::NodeId r) const {
  if (r >= n_) return {};
  return {next_.data() + std::size_t{r} * n_, n_};
}

util::NodeId RoutingTables::next_hop(util::NodeId r, util::NodeId dst) const {
  if (r >= n_ || dst >= n_) return util::kInvalidNode;
  return next_[std::size_t{r} * n_ + dst];
}

std::uint64_t RoutingTables::distance(util::NodeId r, util::NodeId dst) const {
  if (r >= n_ || dst >= n_) return kUnreachable;
  return dist_[std::size_t{r} * n_ + dst];
}

Path RoutingTables::path(util::NodeId src, util::NodeId dst) const {
  Path p;
  if (distance(src, dst) == kUnreachable) return p;
  util::NodeId cur = src;
  p.push_back(cur);
  while (cur != dst) {
    cur = next_hop(cur, dst);
    if (cur == util::kInvalidNode || p.size() > n_) return {};
    p.push_back(cur);
  }
  return p;
}

std::vector<Path> RoutingTables::all_paths(const std::vector<util::NodeId>& terminals) const {
  std::vector<Path> out;
  for (util::NodeId s : terminals) {
    for (util::NodeId d : terminals) {
      if (s == d) continue;
      Path p = path(s, d);
      if (!p.empty()) out.push_back(std::move(p));
    }
  }
  return out;
}

// ------------------------------------------------------------- PolicyRoutes

PolicyRoutes::PolicyRoutes(const Topology& topo, const std::vector<PathSegment>& banned)
    : n_(topo.node_count()) {
  for (const PathSegment& seg : banned) {
    const auto& v = seg.nodes();
    if (v.size() == 2) {
      banned_links_.emplace(v[0], v[1]);
    } else if (v.size() >= 3) {
      for (std::size_t i = 0; i + 3 <= v.size(); ++i) {
        banned_triples_.emplace(v[i], v[i + 1], v[i + 2]);
      }
    }
  }
  next_.resize(n_);
  for (util::NodeId d = 0; d < n_; ++d) compute_for_destination(topo, d);
}

bool PolicyRoutes::link_banned(util::NodeId a, util::NodeId b) const {
  return banned_links_.contains({a, b});
}

bool PolicyRoutes::triple_banned(util::NodeId a, util::NodeId b, util::NodeId c) const {
  return banned_triples_.contains({a, b, c});
}

void PolicyRoutes::compute_for_destination(const Topology& topo, util::NodeId dst) {
  // Dijkstra over (prev, node) states: dist[s] = cost from `node` to dst
  // for a packet that arrived via `prev` (prev == node for origination).
  const std::size_t states = n_ * n_;
  std::vector<std::uint64_t> dist(states, kUnreachable);
  auto& next = next_[dst];
  next.assign(states, util::kInvalidNode);

  auto idx = [this](util::NodeId prev, util::NodeId node) {
    return static_cast<std::size_t>(prev) * n_ + node;
  };

  using Item = std::pair<std::uint64_t, std::uint32_t>;  // (dist, state index)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;

  // Every state sitting at dst costs 0, whatever the previous hop.
  for (util::NodeId p = 0; p < n_; ++p) {
    const bool adjacent_or_self = p == dst || topo.has_edge(p, dst);
    if (!adjacent_or_self) continue;
    dist[idx(p, dst)] = 0;
    pq.emplace(0, static_cast<std::uint32_t>(idx(p, dst)));
  }

  std::vector<bool> done(states, false);
  while (!pq.empty()) {
    const auto [d, si] = pq.top();
    pq.pop();
    if (done[si]) continue;
    done[si] = true;
    const auto node = static_cast<util::NodeId>(si % n_);
    const auto via_prev = static_cast<util::NodeId>(si / n_);
    // Popping state (via_prev, node): a packet at via_prev heading to node
    // then onward costs metric(via_prev, node) + d. Relax predecessor
    // states (p, via_prev).
    if (via_prev == node) continue;  // origin states have no predecessors
    if (link_banned(via_prev, node)) continue;
    const std::uint64_t hop = topo.metric(via_prev, node);
    if (hop == 0) continue;  // no such physical edge
    const std::uint64_t nd = d + hop;
    for (util::NodeId p = 0; p < n_; ++p) {
      const bool reachable_state = p == via_prev || topo.has_edge(p, via_prev);
      if (!reachable_state) continue;
      if (p != via_prev && triple_banned(p, via_prev, node)) continue;
      const std::size_t pi = idx(p, via_prev);
      if (nd < dist[pi] || (nd == dist[pi] && node < next[pi])) {
        const bool improved = nd < dist[pi];
        dist[pi] = nd;
        next[pi] = node;
        if (improved) pq.emplace(nd, static_cast<std::uint32_t>(pi));
      }
    }
  }
}

std::optional<util::NodeId> PolicyRoutes::next_hop(util::NodeId prev, util::NodeId node,
                                                   util::NodeId dst) const {
  if (dst >= n_ || node >= n_ || prev >= n_) return std::nullopt;
  if (node == dst) return std::nullopt;
  const util::NodeId nh = next_[dst][static_cast<std::size_t>(prev) * n_ + node];
  if (nh == util::kInvalidNode) return std::nullopt;
  return nh;
}

Path PolicyRoutes::path(util::NodeId src, util::NodeId dst) const {
  Path p;
  if (src >= n_ || dst >= n_) return p;
  util::NodeId prev = src;
  util::NodeId cur = src;
  p.push_back(cur);
  while (cur != dst) {
    const auto nh = next_hop(prev, cur, dst);
    if (!nh || p.size() > n_ * n_) return {};
    prev = cur;
    cur = *nh;
    p.push_back(cur);
  }
  return p;
}

}  // namespace fatih::routing

#include "routing/spf.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace fatih::routing {
namespace {

/// CSR copy of the adjacency: node v's edges are edges[first[v] ..
/// first[v + 1]), in neighbors(v) order.
struct Csr {
  std::vector<std::uint32_t> first;
  std::vector<Topology::Edge> edges;
  std::uint32_t max_metric = 0;
};

Csr make_csr(const Topology& topo) {
  Csr csr;
  csr.first.assign(topo.node_count() + 1, 0);
  csr.edges.reserve(topo.edge_count());
  for (util::NodeId v = 0; v < topo.node_count(); ++v) {
    for (const Topology::Edge& e : topo.neighbors(v)) {
      assert(e.metric >= Topology::kMinMetric);  // add_edge enforces the range
      csr.edges.push_back(e);
      csr.max_metric = std::max(csr.max_metric, e.metric);
    }
    csr.first[v + 1] = static_cast<std::uint32_t>(csr.edges.size());
  }
  return csr;
}

/// The one shortest-path engine: Dial's bucket queue over dense states.
/// Every queued distance lies in [cur, cur + max_metric], so a ring of
/// max_metric + 1 buckets holds them apart, and a relaxation (metric >= 1)
/// never lands in the bucket being drained. A state queued again at a
/// smaller distance leaves a stale entry behind, skipped because its
/// distance no longer equals cur. All buffers are reused across runs.
class BucketRing {
 public:
  BucketRing(std::uint32_t max_metric, std::size_t states)
      : dist(states), next(states), ring_(std::size_t{max_metric} + 1) {}

  /// One reverse SPF from `seeds` at distance 0. Each settled state s
  /// calls expand(s, offer); offer(t, metric, hop) relaxes t to dist[s] +
  /// metric with next hop `hop`, which wins a tie when it is smaller.
  template <typename Expand>
  void run(std::span<const std::uint32_t> seeds, Expand&& expand) {
    std::fill(dist.begin(), dist.end(), kUnreachable);
    std::fill(next.begin(), next.end(), util::kInvalidNode);
    for (const std::uint32_t s : seeds) {
      dist[s] = 0;
      ring_[0].push_back(s);
    }
    std::size_t queued = seeds.size();
    std::size_t slot = 0;  // cur % ring_.size()
    for (std::uint64_t cur = 0; queued > 0; ++cur) {
      std::vector<std::uint32_t>& bucket = ring_[slot];
      queued -= bucket.size();
      const auto offer = [&](std::uint32_t t, std::uint32_t metric, util::NodeId hop) {
        const std::uint64_t nd = cur + metric;
        if (nd < dist[t]) {
          dist[t] = nd;
          next[t] = hop;
          std::size_t to = slot + metric;
          if (to >= ring_.size()) to -= ring_.size();
          ring_[to].push_back(t);
          ++queued;
        } else if (nd == dist[t] && hop < next[t]) {
          next[t] = hop;
        }
      };
      for (const std::uint32_t s : bucket) {
        if (dist[s] == cur) expand(s, offer);
      }
      bucket.clear();
      if (++slot == ring_.size()) slot = 0;
    }
  }

  std::vector<std::uint64_t> dist;  ///< dist[s]: cost from state s to the seeds
  std::vector<util::NodeId> next;   ///< next[s]: next hop; kInvalidNode at seeds

 private:
  std::vector<std::vector<std::uint32_t>> ring_;
};

}  // namespace

RoutingTables::RoutingTables(const Topology& topo)
    : n_(topo.node_count()), next_(n_ * n_, util::kInvalidNode), dist_(n_ * n_, kUnreachable) {
  const Csr csr = make_csr(topo);
  BucketRing ring(csr.max_metric, n_);
  for (util::NodeId dst = 0; dst < n_; ++dst) {
    // States are nodes. Metrics are symmetric, so v's out-edges relax the
    // reverse edges u -> v.
    ring.run({&dst, 1}, [&csr](std::uint32_t v, const auto& offer) {
      for (std::uint32_t i = csr.first[v]; i < csr.first[v + 1]; ++i) {
        offer(csr.edges[i].to, csr.edges[i].metric, v);
      }
    });
    for (std::size_t u = 0; u < n_; ++u) {
      dist_[u * n_ + dst] = ring.dist[u];
      next_[u * n_ + dst] = ring.next[u];
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
  Csr csr = make_csr(topo);
  first_ = std::move(csr.first);
  edges_ = std::move(csr.edges);
  const auto entries = static_cast<std::uint32_t>(edges_.size());
  std::vector<util::NodeId> at(entries);  // the node each entry state sits at
  for (util::NodeId v = 0; v < n_; ++v) {
    std::fill(at.begin() + first_[v], at.begin() + first_[v + 1], v);
  }

  // A ban forbids steps into an entry state: every step for a banned link
  // (kAll), the one step from (at b, from a) into (at c, from b) for a
  // banned <a,b,c> (kSome, listed in `steps`). Origin states are never
  // stepped into.
  enum : std::uint8_t { kOpen, kSome, kAll };
  std::vector<std::uint8_t> blocked(entries, kOpen);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> steps;  // (into, from)
  const auto entry = [this](util::NodeId prev, util::NodeId node) {
    return prev == node ? kNoState : state(prev, node);
  };
  for (const PathSegment& seg : banned) {
    const auto& v = seg.nodes();
    if (v.size() == 2) {
      if (const std::uint32_t s = entry(v[0], v[1]); s != kNoState) blocked[s] = kAll;
    } else if (v.size() >= 3) {
      for (std::size_t i = 0; i + 3 <= v.size(); ++i) {
        const std::uint32_t from = entry(v[i], v[i + 1]);
        const std::uint32_t into = entry(v[i + 1], v[i + 2]);
        if (from == kNoState || into == kNoState) continue;
        if (blocked[into] == kOpen) blocked[into] = kSome;
        steps.emplace_back(into, from);
      }
    }
  }
  std::sort(steps.begin(), steps.end());

  // Settling entry state s (at v, from u) at cost d offers every state at
  // u, its origin included, the step u -> v at cost metric + d.
  const std::size_t states = state_count();
  next_.resize(n_ * states);
  BucketRing ring(csr.max_metric, states);
  std::vector<std::uint32_t> seeds;
  for (util::NodeId dst = 0; dst < n_; ++dst) {
    seeds.clear();
    for (std::uint32_t s = first_[dst]; s < first_[dst + 1]; ++s) seeds.push_back(s);
    seeds.push_back(entries + dst);
    ring.run(seeds, [&](std::uint32_t s, const auto& offer) {
      if (s >= entries || blocked[s] == kAll) return;  // origins have no predecessors
      const util::NodeId u = edges_[s].to;
      const std::uint32_t metric = edges_[s].metric;
      const bool some_blocked = blocked[s] == kSome;
      for (std::uint32_t p = first_[u]; p < first_[u + 1]; ++p) {
        if (some_blocked && std::binary_search(steps.begin(), steps.end(), std::pair{s, p})) {
          continue;
        }
        offer(p, metric, at[s]);
      }
      offer(entries + u, metric, at[s]);
    });
    std::copy(ring.next.begin(), ring.next.end(),
              next_.begin() + static_cast<std::ptrdiff_t>(dst * states));
  }
}

std::uint32_t PolicyRoutes::state(util::NodeId prev, util::NodeId node) const {
  if (prev >= n_ || node >= n_) return kNoState;
  if (prev == node) return static_cast<std::uint32_t>(edges_.size()) + node;
  for (std::uint32_t s = first_[node]; s < first_[node + 1]; ++s) {
    if (edges_[s].to == prev) return s;
  }
  return kNoState;
}

std::optional<util::NodeId> PolicyRoutes::next_hop(util::NodeId prev, util::NodeId node,
                                                   util::NodeId dst) const {
  if (dst >= n_ || node == dst) return std::nullopt;
  const std::uint32_t s = state(prev, node);
  if (s == kNoState) return std::nullopt;
  const util::NodeId nh = next_[dst * state_count() + s];
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
    if (!nh || p.size() > state_count()) return {};
    prev = cur;
    cur = *nh;
    p.push_back(cur);
  }
  return p;
}

}  // namespace fatih::routing

#include "routing/spf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "routing/topologies.hpp"
#include "util/rng.hpp"

namespace fatih::routing {
namespace {

Topology line(std::size_t n) {
  Topology t;
  for (util::NodeId i = 0; i + 1 < n; ++i) t.add_duplex(i, i + 1, 1);
  return t;
}

TEST(Spf, LinePaths) {
  const RoutingTables tables(line(5));
  EXPECT_EQ(tables.path(0, 4), (Path{0, 1, 2, 3, 4}));
  EXPECT_EQ(tables.path(4, 0), (Path{4, 3, 2, 1, 0}));
  EXPECT_EQ(tables.path(2, 2), (Path{2}));
}

TEST(Spf, UnreachableIsEmpty) {
  Topology t;
  t.add_duplex(0, 1, 1);
  t.ensure_node(3);
  const RoutingTables tables(t);
  EXPECT_TRUE(tables.path(0, 3).empty());
  EXPECT_EQ(tables.distance(0, 3), kUnreachable);
}

TEST(Spf, PrefersLowerMetric) {
  // 0 -1- 1 -1- 3 (cost 2)  vs  0 -5- 2 -1- 3 (cost 6).
  Topology t;
  t.add_duplex(0, 1, 1);
  t.add_duplex(1, 3, 1);
  t.add_duplex(0, 2, 5);
  t.add_duplex(2, 3, 1);
  const RoutingTables tables(t);
  EXPECT_EQ(tables.path(0, 3), (Path{0, 1, 3}));
  EXPECT_EQ(tables.distance(0, 3), 2U);
}

TEST(Spf, DeterministicTieBreakPicksSmallerNeighbor) {
  // Two equal-cost routes 0-1-3 and 0-2-3: must pick via 1.
  Topology t;
  t.add_duplex(0, 1, 1);
  t.add_duplex(0, 2, 1);
  t.add_duplex(1, 3, 1);
  t.add_duplex(2, 3, 1);
  const RoutingTables tables(t);
  EXPECT_EQ(tables.path(0, 3), (Path{0, 1, 3}));
}

TEST(Spf, SubpathConsistencyOnRandomGraphs) {
  // Hop-by-hop consistency: any suffix of a chosen path is itself the
  // chosen path of its own source — the property that makes segments
  // meaningful for monitoring.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Topology t = generated_topology(
        topo::generate({.routers = 40, .links = 80, .pops = 5, .max_degree = 10, .seed = seed}));
    const RoutingTables tables(t);
    for (util::NodeId s = 0; s < 40; s += 7) {
      for (util::NodeId d = 0; d < 40; d += 5) {
        const Path p = tables.path(s, d);
        if (p.size() < 3) continue;
        const Path suffix(p.begin() + 1, p.end());
        EXPECT_EQ(tables.path(p[1], d), suffix) << "seed " << seed;
      }
    }
  }
}

TEST(Spf, AbileneCoastToCoast) {
  const RoutingTables tables(abilene_topology());
  const Path p = tables.path(kSunnyvale, kNewYork);
  EXPECT_EQ(p, (Path{kSunnyvale, kDenver, kKansasCity, kIndianapolis, kChicago, kNewYork}));
  EXPECT_EQ(tables.distance(kSunnyvale, kNewYork), 25U);  // ms, Fig. 5.7
}

TEST(Spf, AllPathsCoversOrderedPairs) {
  const RoutingTables tables(line(4));
  const auto paths = tables.all_paths({0, 1, 2, 3});
  EXPECT_EQ(paths.size(), 12U);  // 4*3 ordered pairs
}

// ------------------------------------------- differential: heap reference

/// Distances and next hops toward one destination.
struct ReferenceRoutes {
  std::vector<std::uint64_t> dist;     ///< dist[n] = cost n -> dst
  std::vector<util::NodeId> next_hop;  ///< kInvalidNode at dst/unreachable
};

/// Reverse binary-heap Dijkstra toward `dst`, next hop the smallest
/// neighbour id on a shortest path: the reference that RoutingTables must
/// reproduce on every (node, destination) pair.
ReferenceRoutes heap_routes_to(const Topology& topo, util::NodeId dst) {
  const std::size_t n = topo.node_count();
  ReferenceRoutes out;
  out.dist.assign(n, kUnreachable);
  out.next_hop.assign(n, util::kInvalidNode);
  using Item = std::pair<std::uint64_t, util::NodeId>;  // (dist, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  out.dist[dst] = 0;
  pq.emplace(0, dst);
  std::vector<bool> done(n, false);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (done[v]) continue;
    done[v] = true;
    for (const auto& e : topo.neighbors(v)) {
      const util::NodeId u = e.to;
      const std::uint64_t nd = d + e.metric;
      if (nd < out.dist[u] || (nd == out.dist[u] && v < out.next_hop[u])) {
        const bool improved = nd < out.dist[u];
        out.dist[u] = nd;
        out.next_hop[u] = v;
        if (improved) pq.emplace(nd, u);
      }
    }
  }
  out.next_hop[dst] = util::kInvalidNode;
  return out;
}

/// The first (node, destination) pair where RoutingTables disagrees with
/// the heap reference, or "" when every distance and next hop agrees.
std::string first_mismatch(const Topology& t) {
  const RoutingTables tables(t);
  if (tables.node_count() != t.node_count()) return "node count";
  for (util::NodeId d = 0; d < t.node_count(); ++d) {
    const ReferenceRoutes ref = heap_routes_to(t, d);
    for (util::NodeId n = 0; n < t.node_count(); ++n) {
      const std::uint64_t dist = tables.distance(n, d);
      const util::NodeId hop = tables.row(n)[d];
      if (dist != ref.dist[n] || hop != ref.next_hop[n] || tables.next_hop(n, d) != hop) {
        return std::to_string(n) + "->" + std::to_string(d) + ": dist " + std::to_string(dist) +
               " vs " + std::to_string(ref.dist[n]) + ", next hop " + std::to_string(hop) +
               " vs " + std::to_string(ref.next_hop[n]);
      }
    }
  }
  return "";
}

/// Pairs (node, destination) with more than one neighbour on a shortest
/// path, so that the tie-break alone picks the next hop.
std::size_t tied_pairs(const Topology& t) {
  std::size_t tied = 0;
  for (util::NodeId d = 0; d < t.node_count(); ++d) {
    const ReferenceRoutes ref = heap_routes_to(t, d);
    for (util::NodeId n = 0; n < t.node_count(); ++n) {
      if (n == d || ref.dist[n] == kUnreachable) continue;
      std::size_t on_shortest = 0;
      for (const auto& e : t.neighbors(n)) {
        if (ref.dist[e.to] + e.metric == ref.dist[n]) ++on_shortest;
      }
      if (on_shortest > 1) ++tied;
    }
  }
  return tied;
}

TEST(SpfDifferential, GeneratedGraphsOfSeveralSizes) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Topology t = generated_topology(
        topo::generate({.routers = 40, .links = 80, .pops = 5, .max_degree = 10, .seed = seed}));
    EXPECT_EQ(first_mismatch(t), "") << "40/80/5/10 seed " << seed;
  }
  EXPECT_EQ(first_mismatch(generated_topology(topo::generate(topo::ebone()))), "");
  EXPECT_EQ(first_mismatch(generated_topology(topo::generate(topo::sprintlink()))), "");
  // The fleet's beyond-Rocketfuel preset (gen_wide_pik2_clean).
  const Topology wide = generated_topology(topo::generate(
      {.routers = 600, .links = 1500, .pops = 24, .max_degree = 32, .seed = 2099}));
  EXPECT_EQ(first_mismatch(wide), "");
}

TEST(SpfDifferential, Abilene) { EXPECT_EQ(first_mismatch(abilene_topology()), ""); }

TEST(SpfDifferential, WideMetricRange) {
  // Random metrics from 1 up to OSPF's largest link cost, on generated
  // adjacency: many distinct metric values, so distances span far more
  // than one metric's worth.
  util::Rng rng(7);
  for (const std::int64_t max_metric : {3, 100, 65535}) {
    const topo::GeneratedTopology g =
        topo::generate({.routers = 40, .links = 80, .pops = 5, .max_degree = 10, .seed = 11});
    Topology t;
    for (const topo::GenLink& l : g.links) {
      t.add_duplex(l.a, l.b, static_cast<std::uint32_t>(rng.uniform_int(1, max_metric)));
    }
    EXPECT_EQ(first_mismatch(t), "") << "metrics up to " << max_metric;
  }
}

TEST(SpfDifferential, UnreachableComponent) {
  // EBONE plus a separate ring and an isolated node: every pair across
  // components is unreachable in both directions.
  Topology t = generated_topology(topo::generate(topo::ebone()));
  const auto base = static_cast<util::NodeId>(t.node_count());
  for (util::NodeId i = 0; i < 6; ++i) t.add_duplex(base + i, base + (i + 1) % 6, 1 + i % 3);
  t.ensure_node(base + 6);
  const RoutingTables tables(t);
  EXPECT_EQ(tables.distance(0, base), kUnreachable);
  EXPECT_EQ(tables.distance(base + 6, 0), kUnreachable);
  EXPECT_TRUE(tables.path(base, base + 6).empty());
  EXPECT_EQ(first_mismatch(t), "");
}

/// A 2 x 12 ladder, every link metric 1, under shuffled node ids: most
/// pairs have two shortest-path neighbours, so the tie-break decides.
Topology equal_cost_ladder() {
  constexpr util::NodeId kRungs = 12;
  std::vector<util::NodeId> id(2 * kRungs);
  for (util::NodeId i = 0; i < id.size(); ++i) id[i] = i;
  util::Rng rng(5);
  for (std::size_t i = id.size() - 1; i > 0; --i) {
    std::swap(id[i], id[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }
  Topology t;
  for (util::NodeId r = 0; r < kRungs; ++r) {
    t.add_duplex(id[2 * r], id[2 * r + 1], 1);  // rung
    if (r + 1 < kRungs) {
      t.add_duplex(id[2 * r], id[2 * r + 2], 1);      // top rail
      t.add_duplex(id[2 * r + 1], id[2 * r + 3], 1);  // bottom rail
    }
  }
  return t;
}

TEST(SpfDifferential, EqualCostLadderIsDecidedByTieBreak) {
  const Topology t = equal_cost_ladder();
  EXPECT_GT(tied_pairs(t), t.node_count() * t.node_count() / 4);
  EXPECT_EQ(first_mismatch(t), "");
}

// ------------------------------------------------------------ PolicyRoutes

TEST(PolicyRoutes, NoBansMatchesPlainSpf) {
  const Topology t = abilene_topology();
  const RoutingTables plain(t);
  const PolicyRoutes policy(t, {});
  for (util::NodeId s = 0; s < t.node_count(); ++s) {
    for (util::NodeId d = 0; d < t.node_count(); ++d) {
      if (s == d) continue;
      EXPECT_EQ(policy.path(s, d), plain.path(s, d)) << s << "->" << d;
    }
  }
}

TEST(PolicyRoutes, BannedLinkAvoided) {
  Topology t;
  t.add_duplex(0, 1, 1);
  t.add_duplex(1, 2, 1);
  t.add_duplex(0, 3, 1);
  t.add_duplex(3, 2, 1);
  const PolicyRoutes policy(t, {PathSegment{0, 1}});
  const Path p = policy.path(0, 2);
  EXPECT_EQ(p, (Path{0, 3, 2}));
}

TEST(PolicyRoutes, BannedTripleAvoidedExactly) {
  // Kansas City attack shape: ban <Denver, KansasCity, Indianapolis> on
  // Abilene; traffic from Sunnyvale to New York must reroute via the
  // southern path, and the new path must not contain the banned triple.
  const Topology t = abilene_topology();
  const PathSegment banned{kDenver, kKansasCity, kIndianapolis};
  const PolicyRoutes policy(t, {banned});
  const Path p = policy.path(kSunnyvale, kNewYork);
  ASSERT_FALSE(p.empty());
  EXPECT_FALSE(banned.within(p));
  // The southern path has cost 28 (Fig. 5.7's "new path").
  EXPECT_EQ(p, (Path{kSunnyvale, kLosAngeles, kHouston, kAtlanta, kWashington, kNewYork}));
}

TEST(PolicyRoutes, TrafficThroughMiddleOfTripleStillAllowed) {
  // Banning <a,b,c> must not remove b from the fabric: a path entering b
  // from elsewhere and leaving toward c is legal.
  const Topology t = abilene_topology();
  const PathSegment banned{kDenver, kKansasCity, kIndianapolis};
  const PolicyRoutes policy(t, {banned});
  // Houston -> KansasCity -> Indianapolis does not match the banned triple.
  const Path p = policy.path(kHouston, kIndianapolis);
  EXPECT_EQ(p, (Path{kHouston, kKansasCity, kIndianapolis}));
}

TEST(PolicyRoutes, NoCompliantRouteYieldsEmpty) {
  // Line 0-1-2: banning the middle transition cuts 0 off from 2.
  const Topology t = line(3);
  const PolicyRoutes policy(t, {PathSegment{0, 1, 2}});
  EXPECT_TRUE(policy.path(0, 2).empty());
  EXPECT_FALSE(policy.path(1, 2).empty());  // 1 itself can still reach 2
}

TEST(PolicyRoutes, LongBanDecomposesToTriples) {
  // A banned 4-segment bans each of its length-3 windows (conservative).
  const Topology t = line(5);
  const PolicyRoutes policy(t, {PathSegment{0, 1, 2, 3}});
  EXPECT_TRUE(policy.path(0, 4).empty());   // would need 0,1,2
  EXPECT_TRUE(policy.path(1, 4).empty());   // would need 1,2,3
  EXPECT_FALSE(policy.path(2, 4).empty());  // 2,3,4 unaffected
}

TEST(PolicyRoutes, PropertyBannedTriplesNeverAppear) {
  util::Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const Topology t = generated_topology(topo::generate(
        {.routers = 25, .links = 60, .pops = 3, .max_degree = 8, .seed = 100U + trial}));
    // Pick a random adjacent triple to ban.
    std::vector<PathSegment> bans;
    for (util::NodeId b = 0; b < 25 && bans.empty(); ++b) {
      const auto nbrs = t.neighbors(b);
      if (nbrs.size() >= 2) {
        bans.push_back(PathSegment{nbrs[0].to, b, nbrs[1].to});
      }
    }
    ASSERT_FALSE(bans.empty());
    const PolicyRoutes policy(t, bans);
    for (util::NodeId s = 0; s < 25; ++s) {
      for (util::NodeId d = 0; d < 25; ++d) {
        if (s == d) continue;
        const Path p = policy.path(s, d);
        if (p.empty()) continue;
        EXPECT_FALSE(bans[0].within(p)) << "trial " << trial;
        EXPECT_EQ(p.front(), s);
        EXPECT_EQ(p.back(), d);
        // Path must be simple within its length bound.
        EXPECT_LE(p.size(), 26U);
      }
    }
  }
}

// ------------------------------- PolicyRoutes differential: heap reference

/// Policy routes by a binary-heap Dijkstra over all N^2 (prev, node)
/// states, predecessors found by scanning every node for an edge: the
/// reference that PolicyRoutes must reproduce on every state.
class HeapPolicyRoutes {
 public:
  HeapPolicyRoutes(const Topology& topo, const std::vector<PathSegment>& banned)
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

  [[nodiscard]] std::optional<util::NodeId> next_hop(util::NodeId prev, util::NodeId node,
                                                     util::NodeId dst) const {
    if (dst >= n_ || node >= n_ || prev >= n_) return std::nullopt;
    if (node == dst) return std::nullopt;
    const util::NodeId nh = next_[dst][static_cast<std::size_t>(prev) * n_ + node];
    if (nh == util::kInvalidNode) return std::nullopt;
    return nh;
  }

  [[nodiscard]] Path path(util::NodeId src, util::NodeId dst) const {
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

 private:
  void compute_for_destination(const Topology& topo, util::NodeId dst) {
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
      if (banned_links_.contains({via_prev, node})) continue;
      const std::uint64_t hop = topo.metric(via_prev, node);
      if (hop == 0) continue;  // no such physical edge
      const std::uint64_t nd = d + hop;
      for (util::NodeId p = 0; p < n_; ++p) {
        const bool reachable_state = p == via_prev || topo.has_edge(p, via_prev);
        if (!reachable_state) continue;
        if (p != via_prev && banned_triples_.contains({p, via_prev, node})) continue;
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

  std::size_t n_ = 0;
  std::set<std::pair<util::NodeId, util::NodeId>> banned_links_;
  std::set<std::tuple<util::NodeId, util::NodeId, util::NodeId>> banned_triples_;
  // next_[dst][prev * n + node] = next hop (kInvalidNode if none).
  std::vector<std::vector<util::NodeId>> next_;
};

std::string hop_string(std::optional<util::NodeId> hop) {
  return hop ? std::to_string(*hop) : "none";
}

/// The first state or pair where PolicyRoutes disagrees with the heap
/// reference, or "" when all agree. At every (node, destination) it asks
/// next_hop for prev = the node itself, each neighbour and one node that is
/// neither; then it compares path() on every ordered pair.
std::string first_policy_mismatch(const Topology& t, const std::vector<PathSegment>& banned) {
  const PolicyRoutes routes(t, banned);
  const HeapPolicyRoutes ref(t, banned);
  const auto n = static_cast<util::NodeId>(t.node_count());
  for (util::NodeId node = 0; node < n; ++node) {
    std::vector<util::NodeId> prevs{node};
    for (const auto& e : t.neighbors(node)) prevs.push_back(e.to);
    for (util::NodeId p = 0; p < n; ++p) {
      if (std::find(prevs.begin(), prevs.end(), p) == prevs.end()) {
        prevs.push_back(p);
        break;
      }
    }
    for (util::NodeId dst = 0; dst < n; ++dst) {
      for (const util::NodeId prev : prevs) {
        const auto got = routes.next_hop(prev, node, dst);
        const auto want = ref.next_hop(prev, node, dst);
        if (got != want) {
          return "next_hop(" + std::to_string(prev) + ", " + std::to_string(node) + ", " +
                 std::to_string(dst) + "): " + hop_string(got) + " vs " + hop_string(want);
        }
      }
    }
  }
  for (util::NodeId s = 0; s < n; ++s) {
    for (util::NodeId d = 0; d < n; ++d) {
      if (routes.path(s, d) != ref.path(s, d)) {
        return "path(" + std::to_string(s) + ", " + std::to_string(d) + ")";
      }
    }
  }
  return "";
}

/// Up to `max_bans` bans of 1 to 5 nodes, each a window of the plain route
/// between two random nodes, as a detector would name one.
std::vector<PathSegment> bans_from_paths(const Topology& t, util::Rng& rng, int max_bans) {
  const RoutingTables tables(t);
  const auto last = static_cast<std::int64_t>(t.node_count()) - 1;
  std::vector<PathSegment> bans;
  for (std::int64_t i = rng.uniform_int(0, max_bans); i > 0; --i) {
    const Path p = tables.path(static_cast<util::NodeId>(rng.uniform_int(0, last)),
                               static_cast<util::NodeId>(rng.uniform_int(0, last)));
    if (p.empty()) continue;
    const auto size = static_cast<std::int64_t>(p.size());
    const std::int64_t len = rng.uniform_int(1, std::min<std::int64_t>(5, size));
    const auto first = p.begin() + rng.uniform_int(0, size - len);
    bans.emplace_back(std::vector<util::NodeId>(first, first + len));
  }
  return bans;
}

/// Ordered pairs whose route under `banned` differs from the plain route.
std::size_t rerouted_pairs(const Topology& t, const std::vector<PathSegment>& banned) {
  const RoutingTables plain(t);
  const HeapPolicyRoutes ref(t, banned);
  std::size_t moved = 0;
  for (util::NodeId s = 0; s < t.node_count(); ++s) {
    for (util::NodeId d = 0; d < t.node_count(); ++d) moved += ref.path(s, d) != plain.path(s, d);
  }
  return moved;
}

std::string bans_string(const std::vector<PathSegment>& bans) {
  std::string s;
  for (const PathSegment& b : bans) s += b.to_string() + " ";
  return s;
}

TEST(PolicyRoutesDifferential, AbileneFig57Ban) {
  EXPECT_EQ(first_policy_mismatch(abilene_topology(),
                                  {PathSegment{kDenver, kKansasCity, kIndianapolis}}),
            "");
}

TEST(PolicyRoutesDifferential, AbileneEachDirectedLinkBan) {
  const Topology t = abilene_topology();
  for (util::NodeId a = 0; a < t.node_count(); ++a) {
    for (const auto& e : t.neighbors(a)) {
      EXPECT_EQ(first_policy_mismatch(t, {PathSegment{a, e.to}}), "")
          << "ban " << a << "->" << e.to;
    }
  }
}

TEST(PolicyRoutesDifferential, GeneratedGraphsWithBansFromInUsePaths) {
  util::Rng rng(24);
  std::size_t rerouting = 0;  // graphs whose bans move at least one route
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Topology t = generated_topology(
        topo::generate({.routers = 30, .links = 70, .pops = 3, .max_degree = 8, .seed = seed}));
    const std::vector<PathSegment> bans = bans_from_paths(t, rng, 4);
    EXPECT_EQ(first_policy_mismatch(t, bans), "")
        << "seed " << seed << ", bans " << bans_string(bans);
    rerouting += rerouted_pairs(t, bans) > 0;
  }
  EXPECT_GE(rerouting, 12U);
}

TEST(PolicyRoutesDifferential, NoCompliantRouteAndLongBan) {
  EXPECT_EQ(first_policy_mismatch(line(3), {PathSegment{0, 1, 2}}), "");
  EXPECT_EQ(first_policy_mismatch(line(5), {PathSegment{0, 1, 2, 3}}), "");
}

TEST(PolicyRoutesDifferential, WideMetricRange) {
  util::Rng rng(31);
  for (const std::int64_t max_metric : {3, 100, 65535}) {
    const topo::GeneratedTopology g =
        topo::generate({.routers = 30, .links = 70, .pops = 3, .max_degree = 8, .seed = 5});
    Topology t;
    for (const topo::GenLink& l : g.links) {
      t.add_duplex(l.a, l.b, static_cast<std::uint32_t>(rng.uniform_int(1, max_metric)));
    }
    const std::vector<PathSegment> bans = bans_from_paths(t, rng, 4);
    EXPECT_EQ(first_policy_mismatch(t, bans), "")
        << "metrics up to " << max_metric << ", bans " << bans_string(bans);
  }
}

TEST(PolicyRoutesDifferential, EqualCostLadderWithBanAcrossIt) {
  // Ban the middle triple of the ladder's longest route: the routes around
  // it still tie, so the tie-break decides them.
  const Topology t = equal_cost_ladder();
  const RoutingTables tables(t);
  Path longest;
  for (util::NodeId s = 0; s < t.node_count(); ++s) {
    for (util::NodeId d = 0; d < t.node_count(); ++d) {
      if (const Path p = tables.path(s, d); p.size() > longest.size()) longest = p;
    }
  }
  ASSERT_GE(longest.size(), 5U);
  const auto mid = longest.begin() + static_cast<std::ptrdiff_t>(longest.size() / 2);
  const PathSegment ban(std::vector<util::NodeId>(mid - 1, mid + 2));
  EXPECT_EQ(first_policy_mismatch(t, {ban}), "") << "ban " << ban.to_string();
}

}  // namespace
}  // namespace fatih::routing

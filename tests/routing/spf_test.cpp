#include "routing/spf.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <set>
#include <string>
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

TEST(SpfDifferential, EqualCostLadderIsDecidedByTieBreak) {
  // A 2 x 12 ladder, every link metric 1, under shuffled node ids: most
  // pairs have two shortest-path neighbours, and the smaller id must win.
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

}  // namespace
}  // namespace fatih::routing

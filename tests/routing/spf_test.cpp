#include "routing/spf.hpp"

#include <gtest/gtest.h>

#include <set>

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
  EXPECT_EQ(tables.to(3).dist[0], kUnreachable);
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
  EXPECT_EQ(tables.to(3).dist[0], 2U);
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
  EXPECT_EQ(tables.to(kNewYork).dist[kSunnyvale], 25U);  // ms, Fig. 5.7
}

TEST(Spf, AllPathsCoversOrderedPairs) {
  const RoutingTables tables(line(4));
  const auto paths = tables.all_paths({0, 1, 2, 3});
  EXPECT_EQ(paths.size(), 12U);  // 4*3 ordered pairs
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

#include "routing/disjoint.hpp"

#include <gtest/gtest.h>

#include <set>

#include "routing/topologies.hpp"

namespace fatih::routing {
namespace {

// Two vertex-disjoint routes between 0 and 3: 0-1-3 and 0-2-3.
Topology diamond() {
  Topology t;
  t.add_duplex(0, 1, 1);
  t.add_duplex(0, 2, 1);
  t.add_duplex(1, 3, 1);
  t.add_duplex(2, 3, 1);
  return t;
}

bool internally_disjoint(const std::vector<Path>& paths) {
  std::set<util::NodeId> interior;
  for (const Path& p : paths) {
    for (std::size_t i = 1; i + 1 < p.size(); ++i) {
      if (!interior.insert(p[i]).second) return false;
    }
  }
  return true;
}

bool valid_path(const Topology& t, const Path& p, util::NodeId s, util::NodeId d) {
  if (p.empty() || p.front() != s || p.back() != d) return false;
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    if (!t.has_edge(p[i], p[i + 1])) return false;
  }
  return true;
}

TEST(DisjointPaths, DiamondYieldsTwo) {
  const Topology t = diamond();
  const auto paths = disjoint_paths(t, 0, 3, 4);
  ASSERT_EQ(paths.size(), 2U);
  EXPECT_TRUE(internally_disjoint(paths));
  for (const auto& p : paths) EXPECT_TRUE(valid_path(t, p, 0, 3));
  EXPECT_EQ(vertex_connectivity(t, 0, 3), 2U);
}

TEST(DisjointPaths, LineHasExactlyOne) {
  Topology t;
  t.add_duplex(0, 1, 1);
  t.add_duplex(1, 2, 1);
  const auto paths = disjoint_paths(t, 0, 2, 3);
  ASSERT_EQ(paths.size(), 1U);
  EXPECT_EQ(paths[0], (Path{0, 1, 2}));
  EXPECT_EQ(vertex_connectivity(t, 0, 2), 1U);
}

TEST(DisjointPaths, WantLimitsCount) {
  const Topology t = diamond();
  EXPECT_EQ(disjoint_paths(t, 0, 3, 1).size(), 1U);
  EXPECT_TRUE(disjoint_paths(t, 0, 3, 0).empty());
}

TEST(DisjointPaths, AdjacentNodesUseDirectLink) {
  const Topology t = diamond();
  const auto paths = disjoint_paths(t, 0, 1, 3);
  // 0-1 directly, plus 0-2-3-1 around: internal connectivity 2.
  EXPECT_EQ(paths.size(), 2U);
  EXPECT_TRUE(internally_disjoint(paths));
}

TEST(DisjointPaths, DisconnectedIsEmpty) {
  Topology t;
  t.add_duplex(0, 1, 1);
  t.ensure_node(3);
  EXPECT_TRUE(disjoint_paths(t, 0, 3, 2).empty());
  EXPECT_EQ(vertex_connectivity(t, 0, 3), 0U);
}

TEST(DisjointPaths, AbileneCoastToCoast) {
  const Topology t = abilene_topology();
  const auto paths = disjoint_paths(t, kSunnyvale, kNewYork, 5);
  // Abilene provides at least two internally disjoint coast-to-coast routes.
  ASSERT_GE(paths.size(), 2U);
  EXPECT_TRUE(internally_disjoint(paths));
  for (const auto& p : paths) EXPECT_TRUE(valid_path(t, p, kSunnyvale, kNewYork));
}

TEST(DisjointPaths, PropertyMengerOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Topology t = generated_topology(
        topo::generate({.routers = 40, .links = 90, .pops = 5, .max_degree = 10, .seed = seed}));
    for (util::NodeId s = 0; s < 40; s += 9) {
      for (util::NodeId d = 3; d < 40; d += 11) {
        if (s == d) continue;
        const std::size_t kappa = vertex_connectivity(t, s, d);
        const auto paths = disjoint_paths(t, s, d, kappa + 2);
        EXPECT_EQ(paths.size(), kappa) << "seed " << seed << " " << s << "->" << d;
        EXPECT_TRUE(internally_disjoint(paths));
        for (const auto& p : paths) EXPECT_TRUE(valid_path(t, p, s, d));
      }
    }
  }
}

}  // namespace
}  // namespace fatih::routing

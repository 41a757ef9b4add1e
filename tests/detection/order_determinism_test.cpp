// Container-order determinism regression for the structures migrated off
// unordered_* (fatih-lint R3): SegmentIndex (std::set builds its sorted
// segment universe), Router route tables (a dense forwarding table plus
// a util::FlatMap of policy routes), and PathCache
// (std::map memo with reference stability). Each test runs the same
// computation twice — or with permuted inputs — and requires identical
// observable output, the property hash-ordered iteration silently breaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "detection/path_cache.hpp"
#include "routing/segments.hpp"
#include "routing/spf.hpp"
#include "routing/topologies.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"

namespace fatih {
namespace {

using routing::Path;
using routing::PathSegment;
using routing::SegmentIndex;
using util::NodeId;

std::vector<Path> abilene_paths() {
  const routing::Topology topo = routing::abilene_topology();
  const routing::RoutingTables tables(topo);
  std::vector<NodeId> terminals;
  for (NodeId n = 0; n < 11; ++n) terminals.push_back(n);
  return tables.all_paths(terminals);
}

TEST(OrderDeterminism, SegmentIndexIsInputOrderInvariant) {
  const std::vector<Path> paths = abilene_paths();
  std::vector<Path> reversed(paths.rbegin(), paths.rend());

  const SegmentIndex a(paths, 1);
  const SegmentIndex b(reversed, 1);

  EXPECT_EQ(a.all_pi2_segments(), b.all_pi2_segments());
  EXPECT_EQ(a.all_pik2_segments(), b.all_pik2_segments());
  for (NodeId r = 0; r < 11; ++r) {
    EXPECT_EQ(a.pr_pi2(r), b.pr_pi2(r)) << "pr_pi2 diverges at r" << r;
    EXPECT_EQ(a.pr_pik2(r), b.pr_pik2(r)) << "pr_pik2 diverges at r" << r;
  }
}

TEST(OrderDeterminism, SegmentIndexSegmentsAreSortedUnique) {
  const SegmentIndex idx(abilene_paths(), 1);
  const auto sorted_unique = [](const std::vector<PathSegment>& v) {
    return std::is_sorted(v.begin(), v.end()) &&
           std::adjacent_find(v.begin(), v.end()) == v.end();
  };
  EXPECT_TRUE(sorted_unique(idx.all_pi2_segments()));
  EXPECT_TRUE(sorted_unique(idx.all_pik2_segments()));
}

TEST(OrderDeterminism, RouterRoutesAreInsertionOrderInvariant) {
  sim::Network net{1};
  sim::Router& fwd = net.add_router("fwd");
  sim::Router& rev = net.add_router("rev");
  for (int i = 0; i < 3; ++i) {  // interfaces 0..2 on both routers
    sim::Router& peer = net.add_router("peer");
    net.connect(fwd.id(), peer.id(), {});
    net.connect(rev.id(), peer.id(), {});
  }

  // Same table, installed in opposite orders: ascending ids grow the dense
  // forwarding table one entry at a time, descending ids size it at once.
  for (NodeId dst = 0; dst < 20; ++dst) fwd.set_route(dst, dst % 3);
  for (NodeId dst = 20; dst-- > 0;) rev.set_route(dst, dst % 3);
  for (NodeId prev = 0; prev < 5; ++prev) {
    fwd.set_policy_route(prev, prev + 1, 2);
    rev.set_policy_route(4 - prev, 5 - prev, 2);
  }

  for (NodeId prev = 0; prev < 6; ++prev) {
    for (NodeId dst = 0; dst < 21; ++dst) {
      EXPECT_EQ(fwd.lookup(prev, dst), rev.lookup(prev, dst))
          << "lookup(" << prev << ", " << dst << ") diverges";
    }
  }

  // Agreement alone would pass two equally wrong tables; pin the answers,
  // including the ids the dense table holds no route for.
  using Out = std::optional<std::size_t>;
  for (sim::Router* r : {&fwd, &rev}) {
    EXPECT_EQ(r->lookup(9, 7), Out{1});  // default route, 7 % 3
    EXPECT_EQ(r->lookup(0, 1), Out{2});  // the policy route wins over 1 % 3
    r->set_route(30, 1);
    EXPECT_EQ(r->lookup(9, 25), std::nullopt);  // between routed ids 19 and 30
    EXPECT_EQ(r->lookup(9, 30), Out{1});
    EXPECT_EQ(r->lookup(9, 31), std::nullopt);  // past the largest routed id
    EXPECT_EQ(r->lookup(9, 1000), std::nullopt);
    r->set_route(30, 2);  // a second route to the same destination wins
    EXPECT_EQ(r->lookup(9, 30), Out{2});
    r->set_policy_drop(9, 4);  // suppresses the default route for prev 9 only
    EXPECT_EQ(r->lookup(9, 4), std::nullopt);
    EXPECT_EQ(r->lookup(8, 4), Out{1});
    r->clear_routes();  // empties the default and the policy table
    for (NodeId prev : {0U, 9U}) {
      for (NodeId dst = 0; dst < 32; ++dst) {
        EXPECT_EQ(r->lookup(prev, dst), std::nullopt) << "lookup(" << prev << ", " << dst << ")";
      }
    }
  }
}

TEST(OrderDeterminism, PathCacheIsQueryOrderInvariant) {
  auto tables =
      std::make_shared<const routing::RoutingTables>(routing::abilene_topology());
  detection::PathCache fwd(tables);
  detection::PathCache rev(tables);

  // Warm the two memos in opposite orders; answers must match pairwise.
  for (NodeId s = 0; s < 11; ++s)
    for (NodeId d = 0; d < 11; ++d) (void)fwd.path(s, d);
  for (NodeId s = 11; s-- > 0;)
    for (NodeId d = 11; d-- > 0;) (void)rev.path(s, d);

  for (NodeId s = 0; s < 11; ++s)
    for (NodeId d = 0; d < 11; ++d) EXPECT_EQ(fwd.path(s, d), rev.path(s, d));
}

TEST(OrderDeterminism, PathCacheReferencesSurviveLaterInserts) {
  auto tables =
      std::make_shared<const routing::RoutingTables>(routing::abilene_topology());
  detection::PathCache cache(tables);

  // path() documents reference stability for the cache's lifetime: the
  // memo must not rehash/relocate under later lookups (why it is a
  // std::map, not a FlatMap).
  const Path& early = cache.path(routing::kSeattle, routing::kNewYork);
  const Path snapshot = early;
  const Path* address = &early;

  for (NodeId s = 0; s < 11; ++s)
    for (NodeId d = 0; d < 11; ++d) (void)cache.path(s, d);

  EXPECT_EQ(&cache.path(routing::kSeattle, routing::kNewYork), address);
  EXPECT_EQ(early, snapshot);
}

}  // namespace
}  // namespace fatih

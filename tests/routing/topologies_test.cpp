#include "routing/topologies.hpp"

#include <gtest/gtest.h>

#include <queue>

#include "routing/spf.hpp"

namespace fatih::routing {
namespace {

std::size_t connected_component_size(const Topology& t) {
  if (t.node_count() == 0) return 0;
  std::vector<bool> seen(t.node_count(), false);
  std::queue<util::NodeId> q;
  q.push(0);
  seen[0] = true;
  std::size_t count = 1;
  while (!q.empty()) {
    const auto n = q.front();
    q.pop();
    for (const auto& e : t.neighbors(n)) {
      if (!seen[e.to]) {
        seen[e.to] = true;
        ++count;
        q.push(e.to);
      }
    }
  }
  return count;
}

TEST(Abilene, ElevenPopsAndFourteenLinks) {
  const Topology t = abilene_topology();
  EXPECT_EQ(t.node_count(), 11U);
  EXPECT_EQ(t.edge_count(), 28U);  // 14 duplex links
  EXPECT_EQ(abilene_links().size(), 14U);
}

TEST(Abilene, Connected) {
  EXPECT_EQ(connected_component_size(abilene_topology()), 11U);
}

TEST(Abilene, HeadlinePathLatencies) {
  // Fig. 5.7: primary coast-to-coast path 25 ms one-way; southern
  // alternative 28 ms.
  const Topology t = abilene_topology();
  const RoutingTables tables(t);
  EXPECT_EQ(tables.distance(kSunnyvale, kNewYork), 25U);
  std::uint64_t southern = 0;
  const Path alt{kSunnyvale, kLosAngeles, kHouston, kAtlanta, kWashington, kNewYork};
  for (std::size_t i = 0; i + 1 < alt.size(); ++i) southern += t.metric(alt[i], alt[i + 1]);
  EXPECT_EQ(southern, 28U);
}

TEST(Abilene, NamesResolve) {
  EXPECT_EQ(abilene_name(kKansasCity), "KansasCity");
  EXPECT_EQ(abilene_name(kNewYork), "NewYork");
}

}  // namespace
}  // namespace fatih::routing

#include "routing/topologies.hpp"

namespace fatih::routing {

const std::vector<AbileneLink>& abilene_links() {
  // Delays chosen so that:
  //   Sunnyvale-Denver-KansasCity-Indianapolis-Chicago-NewYork = 25 ms
  //   Sunnyvale-LosAngeles-Houston-Atlanta-Washington-NewYork  = 28 ms
  // matching the one-way latencies quoted for Fig. 5.7.
  static const std::vector<AbileneLink> links = {
      {kSeattle, kSunnyvale, 4},     {kSeattle, kDenver, 11},
      {kSunnyvale, kLosAngeles, 3},  {kSunnyvale, kDenver, 8},
      {kLosAngeles, kHouston, 9},    {kDenver, kKansasCity, 4},
      {kHouston, kKansasCity, 6},    {kHouston, kAtlanta, 7},
      {kKansasCity, kIndianapolis, 5}, {kIndianapolis, kChicago, 2},
      {kIndianapolis, kAtlanta, 8},  {kChicago, kNewYork, 6},
      {kAtlanta, kWashington, 5},    {kNewYork, kWashington, 4},
  };
  return links;
}

std::string abilene_name(util::NodeId n) {
  static const char* names[] = {"Seattle",      "Sunnyvale", "LosAngeles", "Denver",
                                "KansasCity",   "Houston",   "Indianapolis", "Chicago",
                                "Atlanta",      "Washington", "NewYork"};
  if (n < std::size(names)) return names[n];
  return util::node_name(n);
}

Topology abilene_topology() {
  Topology t;
  t.ensure_node(kNewYork);
  for (const auto& l : abilene_links()) t.add_duplex(l.a, l.b, l.delay_ms);
  return t;
}

Topology generated_topology(const topo::GeneratedTopology& g) {
  Topology t;
  for (const topo::GenLink& l : g.links) t.add_duplex(l.a, l.b, l.metric());
  return t;
}

}  // namespace fatih::routing

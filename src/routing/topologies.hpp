// Reference topologies used by the dissertation's evaluation.
//
//  * Abilene (Fig. 5.6): the 11-PoP Internet2 backbone, with link delays
//    chosen so that the two coast-to-coast paths used in the Fatih
//    experiment have one-way latencies of 25 ms and 28 ms (Fig. 5.7).
//  * Rocketfuel-like ISP graphs (Fig. 5.2/5.4): the seeded generator in
//    src/topo (presets topo::sprintlink() and topo::ebone()), converted
//    here into a routing topology. The real maps are not redistributable;
//    a generated graph of the same size and degree statistics preserves
//    the path-segment structure the figures depend on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "routing/graph.hpp"
#include "topo/generator.hpp"

namespace fatih::routing {

/// Abilene PoP indices (NodeIds in the returned topology).
enum AbileneNode : util::NodeId {
  kSeattle = 0,
  kSunnyvale = 1,
  kLosAngeles = 2,
  kDenver = 3,
  kKansasCity = 4,
  kHouston = 5,
  kIndianapolis = 6,
  kChicago = 7,
  kAtlanta = 8,
  kWashington = 9,
  kNewYork = 10,
};

/// One Abilene link with its one-way propagation delay in milliseconds.
/// Metrics equal the delay, so SPF prefers the lower-latency path.
struct AbileneLink {
  util::NodeId a;
  util::NodeId b;
  std::uint32_t delay_ms;
};

/// The 14 Abilene links.
[[nodiscard]] const std::vector<AbileneLink>& abilene_links();

/// Human-readable PoP name.
[[nodiscard]] std::string abilene_name(util::NodeId n);

/// Abilene as a metric-weighted topology (metric = delay in ms).
[[nodiscard]] Topology abilene_topology();

/// A generated ISP graph as a routing topology, each duplex link weighted
/// by GenLink::metric().
[[nodiscard]] Topology generated_topology(const topo::GeneratedTopology& g);

}  // namespace fatih::routing

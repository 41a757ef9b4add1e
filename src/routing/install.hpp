// Installs computed routes into the simulated routers.
//
// Most detection experiments use a static, pre-converged routing fabric
// (the dissertation's stable-state assumption, §4.1); the distributed
// link-state protocol in routing/link_state.hpp is used when routing
// dynamics matter (the Fatih timeline, Fig. 5.7).
#pragma once

#include "routing/spf.hpp"

namespace fatih::sim {
class Network;
}

namespace fatih::routing {

/// Writes every router's next hops from `tables` into the Network.
void install_static_routes(sim::Network& net, const RoutingTables& tables);

}  // namespace fatih::routing

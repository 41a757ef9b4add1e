#include "routing/install.hpp"

#include "sim/network.hpp"

namespace fatih::routing {

void install_static_routes(sim::Network& net, const RoutingTables& tables) {
  for (util::NodeId r = 0; r < net.node_count(); ++r) {
    if (!net.is_router(r)) continue;
    auto& router = net.router(r);
    router.clear_routes();
    for (util::NodeId d = 0; d < tables.node_count(); ++d) {
      if (d == r) continue;
      const auto& routes = tables.to(d);
      if (r >= routes.next_hop.size()) continue;
      const util::NodeId nh = routes.next_hop[r];
      if (nh == util::kInvalidNode) continue;
      if (auto* iface = router.interface_to(nh)) {
        router.set_route(d, iface->index());
      }
    }
  }
}

}  // namespace fatih::routing

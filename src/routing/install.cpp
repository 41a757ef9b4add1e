#include "routing/install.hpp"

#include "sim/network.hpp"

namespace fatih::routing {

PeerIndex::PeerIndex(const sim::Node& node, std::size_t node_count) : iface_(node_count, kNone) {
  // Backwards, so that the first interface toward a peer is the one kept.
  for (std::size_t i = node.interface_count(); i-- > 0;) {
    const util::NodeId peer = node.interface(i).peer();
    if (peer < iface_.size()) iface_[peer] = static_cast<std::uint32_t>(i);
  }
}

void install_static_routes(sim::Network& net, const RoutingTables& tables) {
  for (util::NodeId r = 0; r < net.node_count(); ++r) {
    if (!net.is_router(r)) continue;
    auto& router = net.router(r);
    const auto row = tables.row(r);
    const PeerIndex peers(router, net.node_count());
    router.clear_routes(row.size());
    for (util::NodeId d = 0; d < row.size(); ++d) {
      if (row[d] == util::kInvalidNode) continue;
      const std::uint32_t iface = peers.iface_to(row[d]);
      if (iface != PeerIndex::kNone) router.set_route(d, iface);
    }
  }
}

}  // namespace fatih::routing

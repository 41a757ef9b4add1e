// Installs computed routes into the simulated routers.
//
// Most detection experiments use a static, pre-converged routing fabric
// (the dissertation's stable-state assumption, §4.1); the distributed
// link-state protocol in routing/link_state.hpp is used when routing
// dynamics matter (the Fatih timeline, Fig. 5.7).
#pragma once

#include <cstdint>
#include <vector>

#include "routing/spf.hpp"

namespace fatih::sim {
class Network;
class Node;
}  // namespace fatih::sim

namespace fatih::routing {

/// A node's interface index toward each neighbour, indexed by neighbour
/// id: installing a whole forwarding table maps every next hop to its
/// interface with one load instead of a scan of the interfaces.
class PeerIndex {
 public:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  /// With two interfaces toward one peer the first wins, as in
  /// Node::interface_to.
  PeerIndex(const sim::Node& node, std::size_t node_count);

  /// Index of the node's interface toward `peer`, or kNone.
  [[nodiscard]] std::uint32_t iface_to(util::NodeId peer) const {
    return peer < iface_.size() ? iface_[peer] : kNone;
  }

 private:
  std::vector<std::uint32_t> iface_;
};

/// Writes every router's next hops from `tables` into the Network.
void install_static_routes(sim::Network& net, const RoutingTables& tables);

}  // namespace fatih::routing

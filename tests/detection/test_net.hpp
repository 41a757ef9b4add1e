// Shared fixtures for the detection-protocol tests: small static-routed
// networks with deterministic traffic.
#pragma once

#include <memory>
#include <vector>

#include "crypto/keys.hpp"
#include "detection/path_cache.hpp"
#include "routing/install.hpp"
#include "routing/spf.hpp"
#include "sim/network.hpp"
#include "traffic/sources.hpp"

namespace fatih::detection::testing {

inline sim::LinkConfig fast_link() {
  sim::LinkConfig cfg;
  cfg.bandwidth_bps = 1e8;
  cfg.delay = util::Duration::millis(1);
  cfg.queue_limit_bytes = 64000;
  return cfg;
}

/// A line of `n` routers r0 - r1 - ... - r{n-1} with static routes.
struct LineNet {
  sim::Network net;
  crypto::KeyRegistry keys{777};
  std::shared_ptr<routing::RoutingTables> tables;
  std::unique_ptr<PathCache> paths;
  std::vector<std::unique_ptr<traffic::CbrSource>> sources;

  explicit LineNet(std::size_t n, sim::LinkConfig cfg = fast_link(), std::uint64_t seed = 1)
      : net(seed) {
    for (util::NodeId i = 0; i < n; ++i) net.add_router(util::node_name(i));
    for (util::NodeId i = 0; i + 1 < n; ++i) net.connect(i, static_cast<util::NodeId>(i + 1), cfg);
    tables = std::make_shared<routing::RoutingTables>(routing::Topology::from_network(net));
    routing::install_static_routes(net, *tables);
    paths = std::make_unique<PathCache>(tables);
    for (util::NodeId i = 0; i < n; ++i) {
      net.router(i).set_processing_delay(util::Duration::micros(20), util::Duration::micros(10));
    }
  }

  [[nodiscard]] std::vector<util::NodeId> terminals() const {
    std::vector<util::NodeId> out;
    for (util::NodeId i = 0; i < net.node_count(); ++i) out.push_back(i);
    return out;
  }

  void add_cbr(util::NodeId src, util::NodeId dst, std::uint32_t flow, double pps,
               util::SimTime start, util::SimTime stop) {
    traffic::CbrSource::Config cfg;
    cfg.src = src;
    cfg.dst = dst;
    cfg.flow_id = flow;
    cfg.rate_pps = pps;
    cfg.start = start;
    cfg.stop = stop;
    sources.push_back(std::make_unique<traffic::CbrSource>(net, cfg));
  }
};

}  // namespace fatih::detection::testing

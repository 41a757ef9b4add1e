// Shared fixture for the topology-churn tests: a diamond running REAL
// link-state routing (not static routes), with the versioned path oracle
// wired to the route-change hook.
//
//        r1
//   1  /    \  1          primary r0-r1-r2 (cost 2)
//    r0      r2           detour  r0-r3-r2 (cost 10)
//   5  \    /  5
//        r3
//
// Flapping the r1—r2 link forces the r0->r2 traffic onto the detour and
// back; the epoch keeper turns each reconvergence into a PathCache epoch
// the detection engines use to invalidate the straddling rounds.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "crypto/keys.hpp"
#include "detection/path_cache.hpp"
#include "detection/route_epochs.hpp"
#include "detection/types.hpp"
#include "routing/link_state.hpp"
#include "routing/spf.hpp"
#include "sim/churn.hpp"
#include "sim/network.hpp"
#include "traffic/sources.hpp"

namespace fatih::detection::testing {

struct ChurnNet {
  sim::Network net;
  crypto::KeyRegistry keys{4242};
  std::shared_ptr<routing::RoutingTables> tables;
  std::unique_ptr<PathCache> paths;
  std::unique_ptr<routing::LinkStateRouting> lsr;
  std::unique_ptr<RouteEpochKeeper> keeper;
  std::vector<std::unique_ptr<traffic::CbrSource>> sources;

  explicit ChurnNet(std::uint64_t seed = 7) : net(seed) {
    for (util::NodeId i = 0; i < 4; ++i) net.add_router(util::node_name(i));
    connect(0, 1, 1);
    connect(1, 2, 1);
    connect(0, 3, 5);
    connect(3, 2, 5);
    for (util::NodeId i = 0; i < 4; ++i) {
      net.router(i).set_processing_delay(util::Duration::micros(20), util::Duration::micros(10));
    }
    // Epoch 0: the converged steady state (central SPF agrees with what
    // the daemons install once they converge, metrics being identical).
    tables = std::make_shared<routing::RoutingTables>(routing::Topology::from_network(net));
    paths = std::make_unique<PathCache>(tables);

    routing::LinkStateConfig rc;
    rc.hello_interval = util::Duration::millis(200);
    rc.dead_interval = util::Duration::millis(800);
    rc.spf_delay = util::Duration::millis(100);
    rc.spf_hold = util::Duration::millis(200);
    rc.lsa_min_interval = util::Duration::millis(50);
    lsr = std::make_unique<routing::LinkStateRouting>(net, keys, rc);
    // Lookback covers the blackhole between a physical failure and the
    // SPF that reacts: dead_interval + hello-scan granularity + spf_delay
    // + slack.
    keeper = std::make_unique<RouteEpochKeeper>(net, *lsr, *paths,
                                                util::Duration::millis(1300));
    lsr->start();
  }

  void connect(util::NodeId a, util::NodeId b, std::uint32_t metric) {
    sim::LinkConfig cfg;
    cfg.bandwidth_bps = 1e8;
    cfg.delay = util::Duration::millis(1);
    cfg.queue_limit_bytes = 64000;
    cfg.metric = metric;
    net.connect(a, b, cfg);
  }

  /// Round clock starting after the routing fabric has converged.
  [[nodiscard]] static RoundClock clock() {
    return RoundClock{util::SimTime::from_seconds(2), util::Duration::seconds(1)};
  }

  /// The terminals whose paths the engines monitor: the ends of the
  /// primary path.
  [[nodiscard]] static std::vector<util::NodeId> terminals() { return {0, 2}; }

  /// The standard flap: the primary's r1—r2 link fails at 7.4 s (mid
  /// detection round) and is repaired at 9.4 s.
  [[nodiscard]] static sim::ChurnSchedule flap_schedule() {
    sim::ChurnSchedule churn;
    churn.link_down(1, 2, util::SimTime::from_seconds(7.4));
    churn.link_up(1, 2, util::SimTime::from_seconds(9.4));
    return churn;
  }

  void add_cbr(util::NodeId src, util::NodeId dst, std::uint32_t flow, double pps,
               double start, double stop) {
    traffic::CbrSource::Config cfg;
    cfg.src = src;
    cfg.dst = dst;
    cfg.flow_id = flow;
    cfg.rate_pps = pps;
    cfg.start = util::SimTime::from_seconds(start);
    cfg.stop = util::SimTime::from_seconds(stop);
    sources.push_back(std::make_unique<traffic::CbrSource>(net, cfg));
  }
};

}  // namespace fatih::detection::testing

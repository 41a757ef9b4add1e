// Quickstart: build a small network, attach the Pi(k+2) detector, break a
// router, watch it get caught.
//
//   $ ./quickstart
//
// Walkthrough of the public API:
//   1. sim::Network        — routers, duplex links, static routes
//   2. traffic::CbrSource  — data-plane load
//   3. detection::Pik2Engine — the practical detector from the paper
//   4. attacks::RateDropAttack — a compromised router
//   5. Suspicion handling  — what you would feed into the response layer
#include <cstdio>

#include "attacks/attacks.hpp"
#include "detection/pik2.hpp"
#include "routing/install.hpp"
#include "traffic/sources.hpp"

using namespace fatih;
using util::Duration;
using util::NodeId;
using util::SimTime;

int main() {
  std::printf("-- quickstart: detecting a malicious router in 5 hops --\n\n");

  // 1. A line of five routers: r0 - r1 - r2 - r3 - r4.
  sim::Network net(/*seed=*/1);
  for (util::NodeId i = 0; i < 5; ++i) net.add_router(util::node_name(i));
  sim::LinkConfig link;
  link.bandwidth_bps = 1e8;                 // 100 Mbps
  link.delay = Duration::millis(1);
  link.queue_limit_bytes = 64000;
  for (NodeId i = 0; i + 1 < 5; ++i) net.connect(i, i + 1, link);

  // Static routing (stable state); the library computes loop-free,
  // deterministic shortest paths and installs them on every router.
  auto tables = std::make_shared<routing::RoutingTables>(routing::Topology::from_network(net));
  routing::install_static_routes(net, *tables);

  // 2. 200 packets/s from r0 to r4 for four seconds.
  traffic::CbrSource::Config cbr;
  cbr.src = 0;
  cbr.dst = 4;
  cbr.flow_id = 1;
  cbr.rate_pps = 200;
  cbr.start = SimTime::from_seconds(0.1);
  cbr.stop = SimTime::from_seconds(3.9);
  traffic::CbrSource source(net, cbr);

  // 3. The Pi(k+2) detector: 1-second validation rounds, k = 1 (segments
  // of three routers, monitored by their end points).
  crypto::KeyRegistry keys(/*master_seed=*/42);
  detection::PathCache paths(tables);
  detection::Pik2Config cfg;
  cfg.clock = detection::RoundClock{SimTime::origin(), Duration::seconds(1)};
  cfg.k = 1;
  cfg.rounds = 4;
  detection::Pik2Engine engine(net, keys, paths, {0, 1, 2, 3, 4}, cfg);
  engine.set_suspicion_handler([](const detection::Suspicion& s) {
    std::printf("  !! %s\n", s.to_string().c_str());
  });
  engine.start();

  // 4. Compromise r2: from t=2s it silently drops every packet of flow 1.
  attacks::FlowMatch match;
  match.flow_ids = {1};
  net.router(2).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, /*fraction=*/1.0, SimTime::from_seconds(2), /*seed=*/7));
  std::printf("r2 is compromised from t=2s (drops all of flow 1)\n\n");

  // 5. Run and report.
  net.sim().run_until(SimTime::from_seconds(6));

  std::printf("\n%zu suspicion(s) raised; packets r2 maliciously dropped: %llu\n",
              engine.suspicions().size(),
              static_cast<unsigned long long>(net.router(2).malicious_drops()));
  for (const auto& s : engine.suspicions()) {
    std::printf("  suspected segment %s (reporter %s)\n", s.segment.to_string().c_str(),
                util::node_name(s.reporter).c_str());
  }
  std::printf("\nEvery suspected segment contains r2 (precision k+2 = 3): feed these\n"
              "into routing::LinkStateRouting::announce_suspicion to route around it\n"
              "(see the fatih_abilene example).\n");
  return 0;
}

// The dissertation's chapter-3 survey, live: one identical attack — a
// compromised mid-path router dropping 50% of a flow — run against every
// detection protocol in the library, printing what each one reports.
//
//   WATCHERS        conservation of flow per router       (§3.1)
//   HSER            per-hop authentication + acks         (§3.2)
//   HERZBERG e2e    per-packet end-to-end acks            (§3.3)
//   SecTrace        hop-by-hop source validation          (§3.6)
//   PERLMAN_d       per-hop acks to the source            (§3.7)
//   ZHANG           Poisson-model loss threshold          (§3.12)
//   Protocol Pi2    per-segment-node summaries + flooding (§5.1)
//   Protocol Pik+2  segment-end summaries                 (§5.2)
//   Protocol chi    queue-replay congestion-aware         (ch. 6)
#include <cstdio>
#include <memory>

#include "attacks/attacks.hpp"
#include "detection/chi.hpp"
#include "detection/herzberg.hpp"
#include "detection/perlman.hpp"
#include "detection/pi2.hpp"
#include "detection/pik2.hpp"
#include "detection/hser.hpp"
#include "detection/sectrace.hpp"
#include "detection/watchers.hpp"
#include "detection/zhang.hpp"
#include "routing/install.hpp"
#include "traffic/sources.hpp"

using namespace fatih;
using namespace fatih::detection;
using util::Duration;
using util::NodeId;
using util::SimTime;

namespace {

// One shared scenario: line r0..r4, flow 1 at 200 pps, r2 drops 50% of it
// from t = 2 s.
struct Scenario {
  sim::Network net{4242};
  crypto::KeyRegistry keys{99};
  std::shared_ptr<routing::RoutingTables> tables;
  std::unique_ptr<PathCache> paths;
  std::unique_ptr<traffic::CbrSource> source;

  Scenario() {
    for (util::NodeId i = 0; i < 5; ++i) net.add_router(util::node_name(i));
    sim::LinkConfig link;
    link.bandwidth_bps = 1e8;
    link.delay = Duration::millis(1);
    for (NodeId i = 0; i + 1 < 5; ++i) net.connect(i, i + 1, link);
    tables = std::make_shared<routing::RoutingTables>(routing::Topology::from_network(net));
    routing::install_static_routes(net, *tables);
    paths = std::make_unique<PathCache>(tables);
    for (NodeId i = 0; i < 5; ++i) {
      net.router(i).set_processing_delay(Duration::micros(20), Duration::micros(10));
    }
    traffic::CbrSource::Config c;
    c.src = 0;
    c.dst = 4;
    c.flow_id = 1;
    c.rate_pps = 200;
    c.start = SimTime::from_seconds(0.1);
    c.stop = SimTime::from_seconds(5.9);
    source = std::make_unique<traffic::CbrSource>(net, c);
  }

  void arm_attack() {
    attacks::FlowMatch match;
    match.flow_ids = {1};
    net.router(2).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
        match, 0.5, SimTime::from_seconds(2), 7));
  }

  void run() { net.sim().run_until(SimTime::from_seconds(8)); }
};

void report(const char* name, const std::vector<Suspicion>& suspicions) {
  if (suspicions.empty()) {
    std::printf("  %-14s no detection\n", name);
    return;
  }
  // First suspicion is representative; count the rest.
  std::printf("  %-14s %zu suspicion(s); first: %s suspects %s (%s)\n", name,
              suspicions.size(), util::node_name(suspicions.front().reporter).c_str(),
              suspicions.front().segment.to_string().c_str(),
              suspicions.front().cause.c_str());
}

detection::RoundClock one_second_rounds() {
  return detection::RoundClock{SimTime::origin(), Duration::seconds(1)};
}

}  // namespace

int main() {
  std::printf("-- one attack, every detector: r2 drops 50%% of flow 1 from t=2s --\n\n");

  {
    Scenario s;
    WatchersConfig cfg;
    cfg.clock = one_second_rounds();
    cfg.rounds = 5;
    WatchersEngine engine(s.net, *s.paths, cfg);
    engine.start();
    s.arm_attack();
    s.run();
    report("WATCHERS", engine.suspicions());
  }
  {
    Scenario s;
    HserConfig cfg;
    cfg.flow_id = 2;  // HSER owns its sending side; use a parallel flow
    HserDetector det(s.net, s.keys, {0, 1, 2, 3, 4}, cfg);
    for (int i = 0; i < 800; ++i) {
      s.net.sim().schedule_at(SimTime::from_seconds(0.1 + 0.005 * i),
                              [&det, i] { det.send(static_cast<std::uint32_t>(i), 500); });
    }
    attacks::FlowMatch match2;
    match2.flow_ids = {2};
    s.net.router(2).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
        match2, 0.5, SimTime::from_seconds(2), 7));
    s.run();
    report("HSER", det.suspicions());
  }
  {
    Scenario s;
    HerzbergConfig cfg;
    cfg.flow_id = 1;
    HerzbergDetector det(s.net, s.keys, {0, 1, 2, 3, 4}, cfg);
    s.arm_attack();
    s.run();
    report("HERZBERG", det.suspicions());
  }
  {
    Scenario s;
    SecTraceConfig cfg;
    cfg.clock = one_second_rounds();
    cfg.flow_id = 1;
    SecTraceDetector det(s.net, s.keys, *s.paths, {0, 1, 2, 3, 4}, cfg);
    det.start();
    s.arm_attack();
    s.run();
    report("SecTrace", det.suspicions());
  }
  {
    Scenario s;
    PerlmanConfig cfg;
    cfg.flow_id = 1;
    PerlmanDetector det(s.net, s.keys, {0, 1, 2, 3, 4}, cfg);
    s.arm_attack();
    s.run();
    report("PERLMAN_d", det.suspicions());
  }
  {
    Scenario s;
    ZhangConfig cfg;
    cfg.clock = one_second_rounds();
    cfg.learning_rounds = 2;
    cfg.rounds = 6;
    ZhangDetector det(s.net, s.keys, *s.paths, 2, 3, cfg);
    det.start();
    s.arm_attack();
    s.run();
    report("ZHANG", det.suspicions());
  }
  {
    Scenario s;
    Pi2Config cfg;
    cfg.clock = one_second_rounds();
    cfg.rounds = 5;
    Pi2Engine engine(s.net, s.keys, *s.paths, {0, 1, 2, 3, 4}, cfg);
    engine.start();
    s.arm_attack();
    s.run();
    report("Pi2", engine.suspicions());
  }
  {
    Scenario s;
    Pik2Config cfg;
    cfg.clock = one_second_rounds();
    cfg.rounds = 5;
    Pik2Engine engine(s.net, s.keys, *s.paths, {0, 1, 2, 3, 4}, cfg);
    engine.start();
    s.arm_attack();
    s.run();
    report("Pi(k+2)", engine.suspicions());
  }
  {
    Scenario s;
    ChiConfig cfg;
    cfg.clock = one_second_rounds();
    cfg.learning_rounds = 2;
    cfg.rounds = 6;
    QueueValidator validator(s.net, s.keys, *s.paths, 2, 3, cfg);
    validator.start();
    s.arm_attack();
    s.run();
    report("Protocol chi", validator.suspicions());
  }

  std::printf(
      "\nAll nine localize the fault to a segment containing r2 — with very\n"
      "different state, message and assumption budgets (see DESIGN.md and the\n"
      "tab3_1/tab5_1 benches), and very different robustness to smarter\n"
      "adversaries (see the collusion and framing tests).\n");
  return 0;
}

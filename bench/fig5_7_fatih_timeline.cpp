// Figure 5.7 reproduction: "Fatih in progress" on the Abilene topology.
//
// Runs the registered scenario `abilene_fatih_kc_drop`
// (src/scenario/registry.cpp). Storyline (paper timings in parentheses):
//   * link-state routing converges from a cold start (~55 s with 10 s
//     hellos), after which a stable Sunnyvale-Denver-KansasCity-
//     Indianapolis-Chicago-NewYork path carries coast-to-coast traffic at
//     ~50 ms RTT (25 ms one-way);
//   * Fatih's first validation round starts at 60 s, with tau = 5 s
//     rounds and k = 1;
//   * at t ~= 117 s the Kansas City router is compromised and drops 20%
//     of its transit traffic;
//   * the terminal routers of the monitored path-segments around Kansas
//     City detect at the end of the current validation round (~3 s),
//     flood signed alerts, and after the OSPF spf-delay (5 s) + hold
//     (10 s) the suspected segments are excluded (~135 s);
//   * traffic shifts to the southern path: RTT becomes ~56 ms (28 ms
//     one-way), and Kansas City keeps forwarding only traffic on paths
//     where no anomaly was observed.
// `--smoke` (ctest's bench-smoke pass) also asserts that storyline from
// the run's own state — the routing daemons, the suspicions and the RTT
// samples — so it holds with tracing compiled out.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "routing/link_state.hpp"
#include "routing/topologies.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/network.hpp"
#include "traffic/sources.hpp"
#include "util/stats.hpp"

using namespace fatih;
using util::Duration;
using util::NodeId;
using util::SimTime;

namespace {

/// True when the segment of a rendered suspicion
/// ("r3 suspects <r3,r4,r6> during ...") contains router `n`.
bool names(const std::string& suspicion, NodeId n) {
  const std::size_t open = suspicion.find('<');
  const std::size_t close = suspicion.find('>', open);
  if (open == std::string::npos || close == std::string::npos) return false;
  // Built by append, not operator+: GCC 12 -Wrestrict (see util::node_name).
  std::string segment(",");
  segment.append(suspicion, open + 1, close - open - 1).append(",");
  std::string router(",");
  router.append(util::node_name(n)).append(",");
  return segment.find(router) != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("== Figure 5.7: Fatih timeline on Abilene ==\n\n");

  const scenario::ScenarioSpec& spec = *scenario::find_scenario("abilene_fatih_kc_drop");
  scenario::ScenarioRun run(spec);
  sim::Network& net = run.network();
  const routing::LinkStateRouting& lsr = *run.routing();

  // One recorder for the whole experiment: detections, alerts, reroutes
  // and the storyline markers all land in the trace sink, and the printed
  // timeline is a filtered replay (obs::Timeline) instead of bespoke
  // hook-built event vectors. Per-packet categories stay off so the ring
  // keeps the 200-second control-plane story.
  obs::TraceConfig tcfg;
  tcfg.capacity = 1 << 16;
  tcfg.enabled[static_cast<std::size_t>(obs::TraceCategory::kQueue)] = false;
  tcfg.enabled[static_cast<std::size_t>(obs::TraceCategory::kDrop)] = false;
  obs::TraceSink sink(tcfg);
  net.sim().set_trace(&sink);

  // Storyline markers at the spec's first round and attack onset.
  const SimTime commission = SimTime::from_nanos(spec.detector.epoch_ns);
  const SimTime attack = SimTime::from_nanos(spec.attacks.front().active_from_ns);
  net.sim().schedule_at(commission, [&] {
    sink.annotate(net.sim().now(), "COMMISSION Fatih (tau=5s, k=1)");
  });
  net.sim().schedule_at(attack, [&] {
    sink.annotate(net.sim().now(), "ATTACK KansasCity drops 20% transit");
  });

  // RTT probe New York <-> Sunnyvale (the plotted series).
  traffic::RttProbe probe(net, routing::kNewYork, routing::kSunnyvale, 900,
                          Duration::millis(500));
  probe.start(SimTime::from_nanos(spec.flows.front().start_ns));

  run.run_to(run.end_time_ns());

  // Convergence report.
  bool all_converged = true;
  for (NodeId n = 0; n <= routing::kNewYork; ++n) {
    if (!lsr.converged(n)) all_converged = false;
  }
  std::printf("routing converged on all 11 PoPs: %s\n\n", all_converged ? "yes" : "NO");

  // Filtered replay of the trace: every detection and storyline marker,
  // alerts at one representative router (Sunnyvale), and the post-alert
  // reroutes at the key western routers.
  std::vector<obs::TraceEvent> picked;
  for (const auto& ev : sink.events()) {
    switch (ev.category) {
      case obs::TraceCategory::kSuspicion:
      case obs::TraceCategory::kAnnotation:
        picked.push_back(ev);
        break;
      case obs::TraceCategory::kRoute:
        if (ev.code == obs::TraceCode::kAlertAccepted && ev.a == routing::kSunnyvale) {
          picked.push_back(ev);
        }
        if (ev.code == obs::TraceCode::kRouteChange &&
            (ev.a == routing::kSunnyvale || ev.a == routing::kDenver) &&
            ev.at > SimTime::from_seconds(100)) {
          picked.push_back(ev);
        }
        break;
      default:
        break;
    }
  }
  const obs::Timeline timeline(picked, routing::abilene_name);
  const auto entries = timeline.entries({obs::TraceCategory::kSuspicion,
                                         obs::TraceCategory::kAnnotation,
                                         obs::TraceCategory::kRoute});

  std::printf("-- event timeline --\n");
#if !FATIH_TRACE
  std::printf("  (tracing compiled out: timeline empty)\n");
#endif
  std::size_t printed = 0;
  for (const auto& ev : entries) {
    std::printf("t=%8.3fs  %s\n", ev.at.seconds(), ev.label.c_str());
    if (++printed > 40) {
      std::printf("  ... (%zu more events)\n", entries.size() - printed);
      break;
    }
  }

  // RTT series in 5-second buckets (the Fig. 5.7 latency curve).
  std::printf("\n-- RTT NewYork <-> Sunnyvale (5 s buckets) --\n");
  std::printf("%-10s %10s %8s\n", "t(s)", "rtt(ms)", "samples");
  std::map<int, util::RunningStats> buckets;
  for (const auto& s : probe.samples()) {
    buckets[static_cast<int>(s.when.seconds() / 5) * 5].add(s.rtt_seconds * 1000.0);
  }
  for (const auto& [t, stats] : buckets) {
    std::printf("%-10d %10.2f %8zu\n", t, stats.mean(), stats.count());
  }

  // Headline numbers, straight off the timeline.
  const auto first_detect = timeline.first(obs::TraceCategory::kSuspicion);
  const auto last_reroute =
      timeline.last(obs::TraceCategory::kRoute, obs::TraceCode::kRouteChange);
  const double detect_t = first_detect ? first_detect->at.seconds() : -1;
  const double reroute_t = last_reroute ? last_reroute->at.seconds() : -1;
  double rtt_before = 0;
  double rtt_after = 0;
  for (const auto& [t, stats] : buckets) {
    if (t >= 80 && t < 115) rtt_before = stats.mean();
    if (t >= 160) rtt_after = stats.mean();
  }
  std::printf("\n-- summary (paper reference in parens) --\n");
  std::printf("attack at t=117s; first detection at t=%.1fs  (paper: ~3s after attack)\n",
              detect_t);
  std::printf("last reroute at t=%.1fs                     (paper: ~135s)\n", reroute_t);
  std::printf("RTT before: %.1f ms (paper: 50 ms)   RTT after: %.1f ms (paper: 56 ms)\n",
              rtt_before, rtt_after);
  if (!smoke) return 0;

  // The storyline, from state the run keeps without a trace.
  bool ok = true;
  const auto check = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::printf("SMOKE FAILURE: %s\n", what);
      ok = false;
    }
  };
  check(all_converged, "routing did not converge on every router");
  const std::vector<std::string> suspicions = run.suspicion_strings();
  const auto names_kc = [](const std::string& s) { return names(s, routing::kKansasCity); };
  check(!suspicions.empty() && std::all_of(suspicions.begin(), suspicions.end(), names_kc),
        "no suspicion, or one that does not name Kansas City");
  bool every_router_bans = true;
  for (NodeId n = 0; n <= routing::kNewYork; ++n) {
    every_router_bans = every_router_bans && !lsr.banned_segments(n).empty();
  }
  check(every_router_bans, "a router holds no ban");
  // After the attack onset, by one round (5 s), the SPF delay (5 s) and
  // the hold (10 s) later.
  const double rerouted = lsr.last_route_change(routing::kSunnyvale).seconds();
  check(rerouted > attack.seconds() && rerouted <= attack.seconds() + 20.0,
        "Sunnyvale did not reroute within 20 s of the attack");
  check(rtt_before >= 49.0 && rtt_before <= 52.0, "RTT before the attack is not 49-52 ms");
  check(rtt_after - rtt_before >= 5.0 && rtt_after - rtt_before <= 7.0,
        "RTT did not rise by 5-7 ms after the reroute");
  return ok ? 0 : 1;
}

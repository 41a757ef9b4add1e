// Figure 5.7 reproduction: "Fatih in progress" on the Abilene topology.
//
// Storyline (paper timings in parentheses):
//   * link-state routing converges from a cold start (~55 s with 10 s
//     hellos), after which a stable Sunnyvale-Denver-KansasCity-
//     Indianapolis-Chicago-NewYork path carries coast-to-coast traffic at
//     ~50 ms RTT (25 ms one-way);
//   * Fatih is commissioned with tau = 5 s validation rounds and k = 1;
//   * at t ~= 117 s the Kansas City router is compromised and drops 20%
//     of its transit traffic;
//   * the terminal routers of the monitored path-segments around Kansas
//     City detect at the end of the current validation round (~3 s),
//     flood signed alerts, and after the OSPF spf-delay (5 s) + hold
//     (10 s) the suspected segments are excluded (~135 s);
//   * traffic shifts to the southern path: RTT becomes ~56 ms (28 ms
//     one-way), and Kansas City keeps forwarding only traffic on paths
//     where no anomaly was observed.
#include <cstdio>
#include <map>
#include <vector>

#include "attacks/attacks.hpp"
#include "fatih/fatih.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "routing/topologies.hpp"
#include "traffic/sources.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

using namespace fatih;
using util::Duration;
using util::NodeId;
using util::SimTime;

int main() {
  std::printf("== Figure 5.7: Fatih timeline on Abilene ==\n\n");

  sim::Network net{20250707};
  crypto::KeyRegistry keys{555};

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
  for (NodeId n = 0; n <= routing::kNewYork; ++n) net.add_router(routing::abilene_name(n));
  for (const auto& l : routing::abilene_links()) {
    sim::LinkConfig link;
    link.delay = Duration::millis(l.delay_ms);
    link.metric = l.delay_ms;
    link.bandwidth_bps = 1e8;
    net.connect(l.a, l.b, link);
  }

  // Paper-faithful control-plane timers.
  routing::LinkStateConfig lcfg;
  lcfg.hello_interval = Duration::seconds(10);
  lcfg.spf_delay = Duration::seconds(5);
  lcfg.spf_hold = Duration::seconds(10);
  routing::LinkStateRouting lsr(net, keys, lcfg);

  system::FatihConfig fcfg;
  fcfg.detection.clock = detection::RoundClock{SimTime::from_seconds(60), Duration::seconds(5)};
  fcfg.detection.k = 1;
  fcfg.detection.collect_settle = Duration::millis(400);
  fcfg.detection.exchange_timeout = Duration::seconds(1);
  fcfg.detection.thresholds.max_lost_fraction = 0.05;
  fcfg.detection.thresholds.max_lost_packets = 2;
  system::FatihSystem fatih(net, keys, lsr, fcfg);

  lsr.start();
  net.sim().schedule_at(SimTime::from_seconds(60), [&] {
    auto tables = std::make_shared<routing::RoutingTables>(routing::abilene_topology());
    std::vector<NodeId> terminals;
    for (NodeId n = 0; n <= routing::kNewYork; ++n) terminals.push_back(n);
    fatih.commission(tables, terminals);
    sink.annotate(net.sim().now(), "COMMISSION Fatih (tau=5s, k=1)");
  });

  // Coast-to-coast traffic crossing Kansas City.
  std::vector<std::unique_ptr<traffic::CbrSource>> sources;
  auto add_cbr = [&](NodeId src, NodeId dst, std::uint32_t flow, double pps) {
    traffic::CbrSource::Config c;
    c.src = src;
    c.dst = dst;
    c.flow_id = flow;
    c.rate_pps = pps;
    c.start = SimTime::from_seconds(62);
    c.stop = SimTime::from_seconds(198);
    sources.push_back(std::make_unique<traffic::CbrSource>(net, c));
  };
  add_cbr(routing::kSunnyvale, routing::kNewYork, 1, 150);
  add_cbr(routing::kNewYork, routing::kSunnyvale, 2, 150);
  add_cbr(routing::kLosAngeles, routing::kChicago, 3, 80);
  add_cbr(routing::kSeattle, routing::kWashington, 4, 80);

  // RTT probe New York <-> Sunnyvale (the plotted series).
  system::RttProbe probe(net, routing::kNewYork, routing::kSunnyvale, 900,
                         Duration::millis(500));
  probe.start(SimTime::from_seconds(62));

  // The attack: Kansas City drops 20% of transit traffic from t=117 s.
  attacks::FlowMatch match;  // all data traffic
  net.sim().schedule_at(SimTime::from_seconds(117), [&] {
    net.router(routing::kKansasCity)
        .set_forward_filter(std::make_shared<attacks::RateDropAttack>(
            match, 0.20, SimTime::from_seconds(117), 99));
    sink.annotate(net.sim().now(), "ATTACK KansasCity drops 20% transit");
  });

  net.sim().run_until(SimTime::from_seconds(200));

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
  return 0;
}

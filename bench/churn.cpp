// Topology-churn resilience on Abilene: a correlated two-link flap severs
// the northern coast-to-coast path mid-experiment while Kansas City is
// compromised (drops 20% of the victim flow). Measures:
//   * reconvergence time for the failure and the repair (max over routers
//     of last_route_change minus the event time),
//   * detection rounds invalidated by the reconvergence (Pi(k+2)),
//   * detection latency before the flap and after the repair, and
//   * that no false suspicion is ever raised — every suspicion must name
//     the compromised router.
// Emits BENCH_churn.json in the current directory (run from the repo root
// to commit it). `--smoke` runs the same scenario, asserts the invariants,
// and skips the JSON artifact (ctest's bench-smoke pass).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include "attacks/attacks.hpp"
#include "detection/pik2.hpp"
#include "detection/route_epochs.hpp"
#include "detection/spec.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "routing/link_state.hpp"
#include "routing/topologies.hpp"
#include "sim/churn.hpp"
#include "traffic/sources.hpp"

using namespace fatih;
using namespace fatih::detection;
using util::Duration;
using util::NodeId;
using util::SimTime;

namespace {

constexpr double kAttackStartS = 12.0;
constexpr double kFlapDownS = 20.4;
constexpr double kFlapUpS = 24.4;
constexpr double kEndS = 31.0;

struct Outcome {
  double reconvergence_down_s = -1.0;
  double reconvergence_up_s = -1.0;
  std::uint64_t rounds_invalidated = 0;
  std::size_t epochs_pushed = 0;
  double detection_latency_before_s = -1.0;  ///< first KC suspicion - attack start
  double detection_latency_after_s = -1.0;   ///< first KC suspicion past repair - repair
  std::size_t suspicions_total = 0;
  std::size_t false_suspicions = 0;  ///< suspicions not naming Kansas City
};

Outcome run() {
  using namespace fatih::routing;
  sim::Network net{77};
  crypto::KeyRegistry keys{2025};

  // The bench is a thin consumer of the trace sink: reconvergence comes
  // from kRouteChange events, detection latency from kSuspicion events.
  // Per-packet categories are disabled so the ring retains the control-
  // plane story end to end.
  obs::TraceConfig tcfg;
  tcfg.capacity = 1 << 16;
  tcfg.enabled[static_cast<std::size_t>(obs::TraceCategory::kQueue)] = false;
  tcfg.enabled[static_cast<std::size_t>(obs::TraceCategory::kDrop)] = false;
  obs::TraceSink sink(tcfg);
  net.sim().set_trace(&sink);
  for (NodeId n = 0; n <= kNewYork; ++n) net.add_router(abilene_name(n));
  for (const auto& l : abilene_links()) {
    sim::LinkConfig link;
    link.delay = Duration::millis(l.delay_ms);
    link.metric = l.delay_ms;
    link.bandwidth_bps = 1e8;
    net.connect(l.a, l.b, link);
  }
  for (NodeId n = 0; n <= kNewYork; ++n) {
    net.router(n).set_processing_delay(Duration::micros(20), Duration::micros(10));
  }

  LinkStateConfig lcfg;
  lcfg.hello_interval = Duration::millis(200);
  lcfg.dead_interval = Duration::millis(800);
  lcfg.spf_delay = Duration::millis(100);
  lcfg.spf_hold = Duration::millis(200);
  lcfg.lsa_min_interval = Duration::millis(50);
  LinkStateRouting lsr(net, keys, lcfg);

  auto tables = std::make_shared<RoutingTables>(abilene_topology());
  PathCache paths(tables);
  RouteEpochKeeper keeper(net, lsr, paths, Duration::millis(1300));

  std::vector<double> changes;  ///< route-change times (s), for reconvergence
#if !FATIH_TRACE
  // Instrumentation compiled out: fall back to the direct hook so the
  // smoke invariants stay checkable in a -DFATIH_TRACE=0 build.
  lsr.add_route_change_hook(
      [&changes](NodeId, SimTime when) { changes.push_back(when.seconds()); });
#endif
  lsr.start();

  Pik2Config cfg;
  cfg.clock = RoundClock{SimTime::from_seconds(10), Duration::seconds(1)};
  cfg.k = 1;
  cfg.collect_settle = Duration::millis(200);
  cfg.exchange_timeout = Duration::millis(400);
  cfg.policy = TvPolicy::kContentOrder;
  cfg.thresholds.max_lost_packets = 2;
  cfg.rounds = 20;
  Pik2Engine engine(net, keys, paths, {kSunnyvale, kNewYork}, cfg);

  Outcome out;
#if !FATIH_TRACE
  engine.set_suspicion_handler([&out, &net](const Suspicion& s) {
    if (!s.segment.contains(kKansasCity)) return;
    const double now = net.sim().now().seconds();
    if (out.detection_latency_before_s < 0 && now < kFlapDownS) {
      out.detection_latency_before_s = now - kAttackStartS;
    }
    if (out.detection_latency_after_s < 0 && now > kFlapUpS) {
      out.detection_latency_after_s = now - kFlapUpS;
    }
  });
#endif
  engine.start();

  // Coast-to-coast traffic over the northern path, through Kansas City.
  std::vector<std::unique_ptr<traffic::CbrSource>> sources;
  for (auto [src, dst, flow] : {std::tuple<NodeId, NodeId, std::uint32_t>{kSunnyvale, kNewYork, 1},
                                {kNewYork, kSunnyvale, 2}}) {
    traffic::CbrSource::Config c;
    c.src = src;
    c.dst = dst;
    c.flow_id = flow;
    c.rate_pps = 200;
    c.start = SimTime::from_seconds(11);
    c.stop = SimTime::from_seconds(kEndS - 1);
    sources.push_back(std::make_unique<traffic::CbrSource>(net, c));
  }

  // Kansas City drops 20% of the victim flow.
  attacks::FlowMatch match;
  match.flow_ids = {1};
  net.router(kKansasCity)
      .set_forward_filter(std::make_shared<attacks::RateDropAttack>(
          match, 0.2, SimTime::from_seconds(kAttackStartS), 5));

  // Correlated fiber cut Sunnyvale—Denver—KansasCity (the northern path's
  // western half) down for 4 s; the reroute avoids Kansas City entirely.
  sim::ChurnSchedule churn;
  churn.srlg({{kSunnyvale, kDenver}, {kDenver, kKansasCity}}, SimTime::from_seconds(kFlapDownS),
             SimTime::from_seconds(kFlapUpS));
  churn.arm(net);

  net.sim().run_until(SimTime::from_seconds(kEndS));

#if FATIH_TRACE
  // Replay the trace instead of having installed bespoke hooks: route
  // changes carry the reconvergence story, and the i-th kSuspicion event
  // carries the raise time of the i-th engine suspicion (both append in
  // emit order, so the zip is exact).
  const obs::Timeline timeline(sink, routing::abilene_name);
  for (const auto& ev :
       timeline.select(obs::TraceCategory::kRoute, obs::TraceCode::kRouteChange)) {
    changes.push_back(ev.at.seconds());
  }
  const auto raised = timeline.select(obs::TraceCategory::kSuspicion);
#endif
  const auto& suspicions = engine.suspicions();
  for (std::size_t i = 0; i < suspicions.size(); ++i) {
    const Suspicion& s = suspicions[i];
    if (!s.segment.contains(kKansasCity)) {
      ++out.false_suspicions;
      std::printf("false suspicion: %s\n", s.to_string().c_str());
      continue;
    }
#if FATIH_TRACE
    if (i >= raised.size()) continue;
    const double when = raised[i].at.seconds();
    if (out.detection_latency_before_s < 0 && when < kFlapDownS) {
      out.detection_latency_before_s = when - kAttackStartS;
    }
    if (out.detection_latency_after_s < 0 && when > kFlapUpS) {
      out.detection_latency_after_s = when - kFlapUpS;
    }
#endif
  }

  const auto reconv = [&changes](double event, double window_end) {
    double last = -1.0;
    for (double t : changes) {
      if (t > event && t <= window_end) last = std::max(last, t - event);
    }
    return last;
  };
  out.reconvergence_down_s = reconv(kFlapDownS, kFlapDownS + 2.0);
  out.reconvergence_up_s = reconv(kFlapUpS, kFlapUpS + 2.0);
  out.rounds_invalidated = engine.counters().rounds_invalidated;
  out.epochs_pushed = keeper.epochs_pushed();
  out.suspicions_total = suspicions.size();
  return out;
}

void write_json(const Outcome& r) {
  std::ofstream f("BENCH_churn.json");
  f << "{\n"
    << "  \"bench\": \"churn\",\n"
    << "  \"scenario\": \"Abilene Pi(k+2), Kansas City drops 20% of flow 1 from t=12s; "
       "SRLG cut Sunnyvale-Denver-KansasCity at t=20.4s, repaired t=24.4s\",\n"
    << "  \"reconvergence_down_s\": " << r.reconvergence_down_s << ",\n"
    << "  \"reconvergence_up_s\": " << r.reconvergence_up_s << ",\n"
    << "  \"rounds_invalidated\": " << r.rounds_invalidated << ",\n"
    << "  \"epochs_pushed\": " << r.epochs_pushed << ",\n"
    << "  \"detection_latency_before_flap_s\": " << r.detection_latency_before_s << ",\n"
    << "  \"detection_latency_after_flap_s\": " << r.detection_latency_after_s << ",\n"
    << "  \"suspicions_total\": " << r.suspicions_total << ",\n"
    << "  \"false_suspicions\": " << r.false_suspicions << "\n"
    << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("== Topology churn on Abilene: reconvergence vs detection ==\n\n");
  const Outcome r = run();
  std::printf("reconvergence (down): %.3f s\n", r.reconvergence_down_s);
  std::printf("reconvergence (up):   %.3f s\n", r.reconvergence_up_s);
  std::printf("epochs pushed:        %zu\n", r.epochs_pushed);
  std::printf("rounds invalidated:   %llu\n",
              static_cast<unsigned long long>(r.rounds_invalidated));
  std::printf("detection latency before flap: %.3f s\n", r.detection_latency_before_s);
  std::printf("detection latency after repair: %.3f s\n", r.detection_latency_after_s);
  std::printf("suspicions: %zu total, %zu false\n", r.suspicions_total, r.false_suspicions);

  bool ok = true;
  const auto check = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::printf("SMOKE FAILURE: %s\n", what);
      ok = false;
    }
  };
  check(r.false_suspicions == 0, "a suspicion named a correct router");
  check(r.suspicions_total > 0, "attacker never suspected");
  check(r.rounds_invalidated > 0, "flap invalidated no rounds");
  check(r.epochs_pushed >= 2, "reconvergence pushed no epochs");
  check(r.reconvergence_down_s > 0, "no reroute after the cut");
  check(r.reconvergence_up_s > 0, "no reroute after the repair");
  check(r.detection_latency_before_s >= 0, "not detected before the flap");
  check(r.detection_latency_after_s >= 0, "not detected after the repair");
  if (!ok) return 1;

  if (!smoke) {
    write_json(r);
    std::printf("\nwrote BENCH_churn.json\n");
  }
  std::printf("\nExpected shape: both reconvergences complete within ~1.3 s (dead\n"
              "interval + SPF delay); the straddling rounds are invalidated rather\n"
              "than judged, so the flap produces zero false suspicions; detection\n"
              "pauses while traffic detours around Kansas City and resumes within a\n"
              "couple of rounds of the repair.\n");
  return 0;
}

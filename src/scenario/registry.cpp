#include "scenario/registry.hpp"

#include <algorithm>

#include "routing/topologies.hpp"
#include "topo/generator.hpp"

namespace fatih::scenario {

namespace {

constexpr std::int64_t kSecond = 1'000'000'000;
constexpr std::int64_t kMilli = 1'000'000;

FlowSpec cbr(util::NodeId src, util::NodeId dst, std::uint32_t flow, std::int64_t rate_pps,
             std::int64_t start_ns, std::int64_t stop_ns) {
  FlowSpec f;
  f.kind = FlowKind::kCbr;
  f.src = src;
  f.dst = dst;
  f.flow_id = flow;
  f.rate_mpps = rate_pps * 1000;
  f.start_ns = start_ns;
  f.stop_ns = stop_ns;
  return f;
}

FlowSpec tcp(util::NodeId src, util::NodeId dst, std::uint32_t flow, std::int64_t start_ns) {
  FlowSpec f;
  f.kind = FlowKind::kTcp;
  f.src = src;
  f.dst = dst;
  f.flow_id = flow;
  f.start_ns = start_ns;
  return f;
}

FlowSpec onoff(util::NodeId src, util::NodeId dst, std::uint32_t flow, std::int64_t rate_pps,
               std::int64_t start_ns, std::int64_t stop_ns) {
  FlowSpec f;
  f.kind = FlowKind::kOnOff;
  f.src = src;
  f.dst = dst;
  f.flow_id = flow;
  f.rate_mpps = rate_pps * 1000;
  f.start_ns = start_ns;
  f.stop_ns = stop_ns;
  f.mean_on_ns = 200 * kMilli;
  f.mean_off_ns = 200 * kMilli;
  return f;
}

/// r0-r1-r2-r3 line base: 4 s of traffic, Pi(k+2) or Pi2 end-to-end rounds.
ScenarioSpec line4(const char* name, DetectorKind detector, std::uint64_t seed) {
  ScenarioSpec s;
  s.name = name;
  s.topology = TopologyKind::kLine4;
  s.seed = seed;
  s.duration_ns = 4 * kSecond;
  s.detector.kind = detector;
  s.detector.tau_ns = kSecond;
  s.detector.rounds = 4;
  s.detector.terminals = {0, 3};
  s.flows.push_back(cbr(0, 3, 1, 200, 50 * kMilli, 4 * kSecond));
  s.flows.push_back(cbr(3, 0, 2, 150, 80 * kMilli, 4 * kSecond));
  return s;
}

/// Blackhole window: the r1-r2 link drops for 0.9 s mid-run. Static
/// routes (no reconvergence), so the detector sees — and must keep seeing,
/// deterministically — the control-traffic failures it induces.
ScenarioSpec blackhole(ScenarioSpec s) {
  ChurnSpec down;
  down.kind = ChurnSpec::Kind::kLinkDown;
  down.at_ns = 1'700 * kMilli;
  down.a = 1;
  down.b = 2;
  s.churn.push_back(down);
  ChurnSpec up;
  up.kind = ChurnSpec::Kind::kLinkUp;
  up.at_ns = 2'600 * kMilli;
  up.a = 1;
  up.b = 2;
  s.churn.push_back(up);
  return s;
}

/// Ships the detector's control traffic over the ack/retransmit channel.
ScenarioSpec reliable(ScenarioSpec s) {
  s.detector.reliable = true;
  return s;
}

AttackSpec drop_at(util::NodeId at, std::uint32_t flow, std::int64_t fraction_ppm,
                   std::int64_t from_ns) {
  AttackSpec a;
  a.kind = AttackKind::kRateDrop;
  a.at = at;
  a.flow_ids = {flow};
  a.fraction_ppm = fraction_ppm;
  a.active_from_ns = from_ns;
  a.seed = 404;
  return a;
}

/// Fig. 6.4 bottleneck base: the ChiExperiment standard traffic mix.
ScenarioSpec chi_base(const char* name, bool red, std::uint64_t seed) {
  constexpr util::NodeId kS1 = 0, kS2 = 1, kRd = 3;
  ScenarioSpec s;
  s.name = name;
  s.topology = TopologyKind::kChiBottleneck;
  s.seed = seed;
  s.duration_ns = 8 * kSecond;
  s.detector.kind = DetectorKind::kChi;
  s.detector.tau_ns = kSecond;
  s.detector.rounds = 8;
  s.detector.learning_rounds = 3;
  s.detector.red = red;
  s.flows.push_back(cbr(kS1, kRd, 1, 300, 50 * kMilli, 7'500 * kMilli));
  s.flows.push_back(tcp(kS1, kRd, 10, 200 * kMilli));
  s.flows.push_back(tcp(kS2, kRd, 11, 400 * kMilli));
  s.flows.push_back(onoff(kS2, kRd, 2, 1100, 50 * kMilli, 7'500 * kMilli));
  return s;
}

// ------------------------------------------------- generated topologies

/// Generated-topology base: sharded engine (4 shards by default), Pi2 or
/// Pi(k+2) between PoP hub routers. The hub ids come from running the
/// (deterministic) generator, so the spec stays plain data.
ScenarioSpec gen_base(const char* name, const TopoSpec& t, DetectorKind detector,
                      const topo::GeneratedTopology& g, std::uint64_t seed,
                      std::int64_t duration_ns) {
  ScenarioSpec s;
  s.name = name;
  s.topology = TopologyKind::kGenerated;
  s.topo = t;
  s.shards = 4;
  s.seed = seed;
  s.duration_ns = duration_ns;
  s.detector.kind = detector;
  s.detector.tau_ns = kSecond;
  s.detector.rounds = duration_ns / kSecond;
  // Flow 1 sources at the PoP-0 feeder, whose only route out is the
  // structurally forced feeder -> chi_owner -> hub chain — so the drop
  // scenarios can compromise chi_owner and be certain it forwards (not
  // originates) the victim flow.
  s.detector.terminals = {g.chi_feed, g.pop_hub[2], g.pop_hub[4], g.pop_hub[6]};
  s.flows.push_back(cbr(g.chi_feed, g.pop_hub[4], 1, 200, 50 * kMilli, duration_ns));
  s.flows.push_back(cbr(g.pop_hub[4], g.chi_feed, 2, 150, 80 * kMilli, duration_ns));
  s.flows.push_back(cbr(g.pop_hub[2], g.pop_hub[6], 3, 120, 110 * kMilli, duration_ns));
  return s;
}

void add_generated(std::vector<ScenarioSpec>& all) {
  const TopoSpec ebone = topo_spec(topo::ebone());
  const TopoSpec sprint = topo_spec(topo::sprintlink());
  const topo::GeneratedTopology ge = topo::generate(topo_params(ebone));
  const topo::GeneratedTopology gs = topo::generate(topo_params(sprint));

  all.push_back(gen_base("gen_ebone_pik2_clean", ebone, DetectorKind::kPik2, ge, 31,
                         3 * kSecond));

  {
    ScenarioSpec s = gen_base("gen_ebone_pi2_drop", ebone, DetectorKind::kPi2, ge, 32,
                              3 * kSecond);
    // chi_owner is flow 1's forced second hop: the drop is on-path and
    // downstream of the sender's accounting regardless of the route the
    // backbone takes beyond the hub.
    s.attacks.push_back(drop_at(ge.chi_owner, 1, 400'000, 1'200 * kMilli));
    all.push_back(s);
  }

  all.push_back(gen_base("gen_sprintlink_pik2_clean", sprint, DetectorKind::kPik2, gs, 33,
                         2 * kSecond));

  {
    ScenarioSpec s = gen_base("gen_sprintlink_pik2_drop", sprint, DetectorKind::kPik2, gs,
                              34, 2 * kSecond);
    s.attacks.push_back(drop_at(gs.chi_owner, 1, 400'000, 900 * kMilli));
    all.push_back(s);
  }

  {
    // Protocol chi on the designated PoP-0 bottleneck of the generated
    // Sprintlink graph: traffic funnels feeder -> owner -> hub, and the
    // owner starts dropping after calibration (chi_droptail_drop20 at
    // Rocketfuel scale).
    ScenarioSpec s;
    s.name = "gen_sprintlink_chi_drop";
    s.topology = TopologyKind::kGenerated;
    s.topo = sprint;
    s.shards = 4;
    s.seed = 35;
    s.duration_ns = 5 * kSecond;
    s.detector.kind = DetectorKind::kChi;
    s.detector.tau_ns = kSecond;
    s.detector.rounds = 5;
    s.detector.learning_rounds = 2;
    s.flows.push_back(cbr(gs.chi_feed, gs.chi_peer, 1, 300, 50 * kMilli, 4'500 * kMilli));
    s.flows.push_back(onoff(gs.chi_feed, gs.chi_peer, 2, 900, 50 * kMilli, 4'500 * kMilli));
    s.attacks.push_back(drop_at(gs.chi_owner, 1, 200'000, 3'500 * kMilli));
    all.push_back(s);
  }

  {
    // Synthetic beyond-Rocketfuel scale: ~600 routers across 24 PoPs.
    TopoSpec wide;
    wide.routers = 600;
    wide.links = 1500;
    wide.pops = 24;
    wide.max_degree = 32;
    wide.seed = 2099;
    const topo::GeneratedTopology gw = topo::generate(topo_params(wide));
    ScenarioSpec s = gen_base("gen_wide_pik2_clean", wide, DetectorKind::kPik2, gw, 36,
                              2 * kSecond);
    s.shards = 8;
    all.push_back(s);
  }
}

std::vector<ScenarioSpec> build_all() {
  std::vector<ScenarioSpec> all;

  add_generated(all);

  all.push_back(line4("line4_pik2_clean", DetectorKind::kPik2, 11));

  {
    ScenarioSpec s = line4("line4_pik2_drop", DetectorKind::kPik2, 12);
    s.attacks.push_back(drop_at(2, 1, 500'000, 1'500 * kMilli));
    all.push_back(s);
  }

  all.push_back(line4("line4_pi2_clean", DetectorKind::kPi2, 13));

  {
    ScenarioSpec s = line4("line4_pi2_drop", DetectorKind::kPi2, 14);
    s.attacks.push_back(drop_at(1, 1, 500'000, 1'500 * kMilli));
    all.push_back(s);
  }

  {
    ScenarioSpec s = line4("line4_pik2_modify", DetectorKind::kPik2, 15);
    AttackSpec a;
    a.kind = AttackKind::kModify;
    a.at = 2;
    a.flow_ids = {1};
    a.fraction_ppm = 300'000;
    a.active_from_ns = 1'500 * kMilli;
    a.seed = 405;
    s.attacks.push_back(a);
    all.push_back(s);
  }

  {
    ScenarioSpec s = line4("line4_pik2_reorder", DetectorKind::kPik2, 16);
    AttackSpec a;
    a.kind = AttackKind::kReorder;
    a.at = 1;
    a.flow_ids = {1};
    a.fraction_ppm = 200'000;
    a.delay_ns = 60 * kMilli;
    a.active_from_ns = 1'500 * kMilli;
    a.seed = 406;
    s.attacks.push_back(a);
    all.push_back(s);
  }

  all.push_back(blackhole(line4("line4_pik2_churn", DetectorKind::kPik2, 17)));
  all.push_back(blackhole(line4("line4_pi2_churn", DetectorKind::kPi2, 20)));

  all.push_back(reliable(line4("line4_pik2_reliable", DetectorKind::kPik2, 18)));
  all.push_back(reliable(line4("line4_pi2_reliable", DetectorKind::kPi2, 19)));

  {
    // The Abilene forwarding substrate (tests/sim/network_test.cpp pins
    // its seed counts) with a Pi(k+2) overlay on two coast-to-coast pairs.
    ScenarioSpec s;
    s.name = "abilene_pik2_clean";
    s.topology = TopologyKind::kAbilene;
    s.seed = 21;
    s.duration_ns = 3 * kSecond;
    s.detector.kind = DetectorKind::kPik2;
    s.detector.tau_ns = kSecond;
    s.detector.rounds = 3;
    s.detector.terminals = {routing::kSeattle, routing::kNewYork, routing::kLosAngeles,
                            routing::kAtlanta};
    s.flows.push_back(cbr(routing::kSeattle, routing::kNewYork, 1, 400, 10 * kMilli,
                          3 * kSecond));
    s.flows.push_back(cbr(routing::kNewYork, routing::kSeattle, 2, 400, 10 * kMilli,
                          3 * kSecond));
    s.flows.push_back(cbr(routing::kLosAngeles, routing::kAtlanta, 3, 250, 20 * kMilli,
                          3 * kSecond));
    all.push_back(s);
    ScenarioSpec d = s;
    d.name = "abilene_pik2_drop";
    d.seed = 22;
    d.attacks.push_back(drop_at(routing::kKansasCity, 1, 400'000, 1'200 * kMilli));
    all.push_back(d);
  }

  {
    // Fig. 5.7, "Fatih in progress": link-state routing converges from a
    // cold start, Pi(k+2) (k = 1, tau = 5 s) takes its first round at
    // 60 s, and from 117 s Kansas City drops 20% of its transit traffic.
    // Each suspicion is flooded as a signed alert, and OSPF routes around
    // the segment after its SPF delay and hold.
    ScenarioSpec s;
    s.name = "abilene_fatih_kc_drop";
    s.topology = TopologyKind::kAbilene;
    s.routing = RoutingKind::kLinkState;
    s.seed = 20250707;
    s.duration_ns = 198 * kSecond;
    s.detector.kind = DetectorKind::kPik2;
    s.detector.epoch_ns = 60 * kSecond;
    s.detector.tau_ns = 5 * kSecond;
    s.detector.rounds = 0;
    const std::int64_t start = 62 * kSecond;
    s.flows.push_back(cbr(routing::kSunnyvale, routing::kNewYork, 1, 150, start, s.duration_ns));
    s.flows.push_back(cbr(routing::kNewYork, routing::kSunnyvale, 2, 150, start, s.duration_ns));
    s.flows.push_back(cbr(routing::kLosAngeles, routing::kChicago, 3, 80, start, s.duration_ns));
    s.flows.push_back(cbr(routing::kSeattle, routing::kWashington, 4, 80, start, s.duration_ns));
    AttackSpec a;
    a.kind = AttackKind::kRateDrop;
    a.at = routing::kKansasCity;
    a.fraction_ppm = 200'000;
    a.active_from_ns = 117 * kSecond;
    a.seed = 99;
    s.attacks.push_back(a);
    all.push_back(s);
  }

  all.push_back(chi_base("chi_droptail_clean", false, 607));

  {
    // Fig. 6.6: drop 20% of the victim flow after calibration.
    ScenarioSpec s = chi_base("chi_droptail_drop20", false, 608);
    s.attacks.push_back(drop_at(2, 1, 200'000, 4 * kSecond));
    all.push_back(s);
    s.name = "chi_droptail_reliable";
    s.seed = 611;
    all.push_back(reliable(s));
  }

  all.push_back(chi_base("chi_red_clean", true, 609));

  {
    // Figs. 6.12-6.15: drops gated on the RED average so they masquerade
    // as early drops.
    ScenarioSpec s = chi_base("chi_red_gate", true, 610);
    AttackSpec a;
    a.kind = AttackKind::kRedGateDrop;
    a.at = 2;
    a.flow_ids = {1};
    a.fraction_ppm = 500'000;
    a.threshold_bytes = 20'000;
    a.active_from_ns = 4 * kSecond;
    a.seed = 407;
    s.attacks.push_back(a);
    all.push_back(s);
  }

  std::sort(all.begin(), all.end(),
            [](const ScenarioSpec& a, const ScenarioSpec& b) { return a.name < b.name; });
  return all;
}

}  // namespace

const std::vector<ScenarioSpec>& builtin_scenarios() {
  static const std::vector<ScenarioSpec> all = build_all();
  return all;
}

const ScenarioSpec* find_scenario(std::string_view name) {
  for (const ScenarioSpec& s : builtin_scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace fatih::scenario

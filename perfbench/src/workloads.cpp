#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <stdexcept>

#include "routing/spf.hpp"
#include "routing/topologies.hpp"
#include "topo/generator.hpp"

namespace perfbench {

namespace {

namespace sc = fatih::scenario;
using fatih::util::NodeId;

constexpr std::int64_t kSecond = 1'000'000'000;
constexpr std::int64_t kMilli = 1'000'000;

/// splitmix64: a portable seeded stream (std distributions are not
/// specified bit-for-bit across standard libraries).
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t s_;
};

/// Rates spread evenly over [lo, hi] pps, shuffled: every seed offers the
/// same total load, only its placement moves.
std::vector<std::int64_t> rate_mix(std::size_t n, std::int64_t lo, std::int64_t hi,
                                   Stream& rng) {
  std::vector<std::int64_t> rates(n);
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = lo + (n > 1 ? (hi - lo) * static_cast<std::int64_t>(i) /
                                 static_cast<std::int64_t>(n - 1)
                           : 0);
  }
  rng.shuffle(rates);
  return rates;
}

sc::FlowSpec cbr(NodeId src, NodeId dst, std::uint32_t flow, std::int64_t rate_pps,
                 std::int64_t start_ns, std::int64_t stop_ns) {
  sc::FlowSpec f;
  f.kind = sc::FlowKind::kCbr;
  f.src = src;
  f.dst = dst;
  f.flow_id = flow;
  f.rate_mpps = rate_pps * 1000;
  f.start_ns = start_ns;
  f.stop_ns = stop_ns;
  return f;
}

sc::AttackSpec drop(NodeId at, std::uint32_t flow, std::int64_t fraction_ppm,
                    std::int64_t from_ns, std::uint64_t seed) {
  sc::AttackSpec a;
  a.kind = sc::AttackKind::kRateDrop;
  a.at = at;
  a.flow_ids = {flow};
  a.fraction_ppm = fraction_ppm;
  a.active_from_ns = from_ns;
  a.seed = seed;
  return a;
}

sc::TopoSpec topo_spec(const fatih::topo::TopoParams& p) {
  sc::TopoSpec t;
  t.routers = p.routers;
  t.links = p.links;
  t.pops = p.pops;
  t.max_degree = p.max_degree;
  t.seed = p.seed;
  t.intra_delay_ns = p.intra_delay_ns;
  t.inter_delay_ns = p.inter_delay_ns;
  return t;
}

/// Attack onset: the middle of the round that starts at half the horizon.
/// An onset on a round boundary would let packets sent just before it be
/// dropped after it and charged to the earlier, attack-free round.
std::int64_t mid_run_onset(std::int64_t duration_ns) {
  return duration_ns / 2 / kSecond * kSecond + 500 * kMilli;
}

unsigned usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/// Abilene, classic engine, Pi(k+2) k=1 over ten terminals, ten
/// coast-to-coast CBR flows near 2000 pps, one flow 20% dropped at an
/// on-path router from mid-run.
Workload abilene_pik2_dense(std::uint64_t seed, bool smoke, Stream& rng) {
  namespace r = fatih::routing;
  Workload w;
  sc::ScenarioSpec& s = w.spec;
  s.name = "abilene_pik2_dense";
  s.topology = sc::TopologyKind::kAbilene;
  s.seed = seed;
  s.duration_ns = (smoke ? 3 : 10) * kSecond;
  s.detector.kind = sc::DetectorKind::kPik2;
  s.detector.tau_ns = kSecond;
  s.detector.rounds = s.duration_ns / kSecond;
  s.detector.k = 1;
  for (NodeId n = 0; n <= r::kNewYork; ++n) {
    if (n != r::kKansasCity) s.detector.terminals.push_back(n);
  }

  // Every west/east coast pair once, plus Seattle/New York twice, each in
  // a seeded direction: the hop count per seed is fixed, only which flow
  // runs which way at which rate moves.
  const std::vector<NodeId> west = {r::kSeattle, r::kSunnyvale, r::kLosAngeles};
  const std::vector<NodeId> east = {r::kNewYork, r::kWashington, r::kAtlanta};
  std::vector<std::pair<NodeId, NodeId>> pairs = {{r::kSeattle, r::kNewYork}};
  for (NodeId a : west) {
    for (NodeId b : east) pairs.emplace_back(a, b);
  }
  rng.shuffle(pairs);
  constexpr std::size_t kFlows = 10;
  const std::vector<std::int64_t> rates =
      rate_mix(kFlows, smoke ? 450 : 1900, smoke ? 550 : 2100, rng);
  for (std::size_t i = 0; i < kFlows; ++i) {
    auto [src, dst] = pairs[i];
    if (rng.below(2) == 1) std::swap(src, dst);
    s.flows.push_back(cbr(src, dst, static_cast<std::uint32_t>(i + 1), rates[i],
                          (10 + static_cast<std::int64_t>(i)) * kMilli, s.duration_ns));
  }

  const std::size_t victim = rng.below(kFlows);
  const r::Path path = r::RoutingTables(r::abilene_topology())
                           .path(s.flows[victim].src, s.flows[victim].dst);
  if (path.size() < 3) throw std::logic_error("abilene victim path has no interior router");
  w.attacker = path[1 + rng.below(path.size() - 2)];
  w.onset_ns = mid_run_onset(s.duration_ns);
  s.attacks.push_back(drop(w.attacker, s.flows[victim].flow_id, 200'000, w.onset_ns,
                           rng.next()));
  w.precision = s.detector.k + 2;
  w.terminals = s.detector.terminals;
  return w;
}

/// Generated Sprintlink, classic engine, Pi2 k=1 over the PoP-0 feeder and
/// three PoP hubs, 45 light CBR flows, 40% drop at chi_owner from mid-run.
Workload sprintlink_pi2_flood(std::uint64_t seed, bool smoke, Stream& rng) {
  Workload w;
  sc::ScenarioSpec& s = w.spec;
  s.name = "sprintlink_pi2_flood";
  s.topology = sc::TopologyKind::kGenerated;
  const fatih::topo::TopoParams params = fatih::topo::sprintlink();
  s.topo = topo_spec(params);
  const fatih::topo::GeneratedTopology g = fatih::topo::generate(params);
  s.seed = seed;
  s.duration_ns = (smoke ? 2 : 3) * kSecond;
  s.detector.kind = sc::DetectorKind::kPi2;
  s.detector.tau_ns = kSecond;
  s.detector.rounds = s.duration_ns / kSecond;
  s.detector.k = 1;
  s.detector.terminals = {g.chi_feed, g.pop_hub[2], g.pop_hub[4], g.pop_hub[6]};

  const std::size_t flows = smoke ? 15 : 45;
  const std::vector<std::int64_t> rates = rate_mix(flows, 120, 190, rng);
  // Flows 1-3 cross the monitored terminals; flow 1 leaves the feeder
  // through its only exit, chi_owner, so the drop there is on-path.
  s.flows.push_back(cbr(g.chi_feed, g.pop_hub[4], 1, rates[0], 50 * kMilli, s.duration_ns));
  s.flows.push_back(cbr(g.pop_hub[4], g.chi_feed, 2, rates[1], 80 * kMilli, s.duration_ns));
  s.flows.push_back(cbr(g.pop_hub[2], g.pop_hub[6], 3, rates[2], 110 * kMilli, s.duration_ns));
  for (std::size_t i = 3; i < flows; ++i) {
    const std::size_t a = rng.below(g.pops());
    const std::size_t b = (a + 1 + rng.below(g.pops() - 1)) % g.pops();
    s.flows.push_back(cbr(g.pop_hub[a], g.pop_hub[b], static_cast<std::uint32_t>(i + 1),
                          rates[i], static_cast<std::int64_t>(20 + i) * kMilli,
                          s.duration_ns));
  }

  w.attacker = g.chi_owner;
  w.onset_ns = mid_run_onset(s.duration_ns);
  s.attacks.push_back(drop(w.attacker, 1, 400'000, w.onset_ns, rng.next()));
  w.precision = 2;
  w.terminals = s.detector.terminals;
  return w;
}

/// Generated Sprintlink on the sharded engine, Protocol chi on the PoP-0
/// bottleneck under 440 cross-PoP CBR flows, 20% drop at chi_owner after
/// calibration.
Workload sprintlink_chi_sharded(std::uint64_t seed, bool smoke, Stream& rng) {
  Workload w;
  sc::ScenarioSpec& s = w.spec;
  s.name = "sprintlink_chi_sharded";
  s.topology = sc::TopologyKind::kGenerated;
  const fatih::topo::TopoParams params = fatih::topo::sprintlink();
  s.topo = topo_spec(params);
  const fatih::topo::GeneratedTopology g = fatih::topo::generate(params);
  s.seed = seed;
  s.shards = 4;
  s.duration_ns = (smoke ? 4 : 8) * kSecond;
  s.detector.kind = sc::DetectorKind::kChi;
  s.detector.tau_ns = kSecond;
  s.detector.rounds = s.duration_ns / kSecond;
  s.detector.learning_rounds = 2;

  // The bottleneck carries 300 pps CBR plus 5000 pps bursts, 200 ms on and
  // 200 ms off at fixed times. An on-off source would draw the burst
  // lengths from spec.seed, and with them the chi replay cost: run time
  // then moves by about 25% from seed to seed.
  const std::int64_t stop = s.duration_ns - 500 * kMilli;
  s.flows.push_back(cbr(g.chi_feed, g.chi_peer, 1, 300, 50 * kMilli, stop));
  std::uint32_t flow = 2;
  for (std::int64_t t = 50 * kMilli; t + 200 * kMilli <= stop; t += 400 * kMilli) {
    s.flows.push_back(cbr(g.chi_feed, g.chi_peer, flow++, 5000, t, t + 200 * kMilli));
  }

  // Cross traffic between PoPs 1..P-1, PoP 0 excluded so the monitored
  // queue carries the same load under every seed. The PoP-level matrix is
  // fixed: in each of ten rounds every PoP sends one flow to the PoP a
  // fixed shift away. A seeded PoP matrix would move load between shard
  // workers, and with it the parallel run's time by up to 1.5x. The seed
  // picks the rates and the routers inside each PoP, cycling through a
  // seeded order of the PoP's members so that every router sends and
  // receives about as often under every seed.
  const std::uint32_t pops = g.pops() - 1;
  std::vector<std::vector<NodeId>> members(g.pops());
  for (NodeId n = 0; n < g.routers(); ++n) members[g.pop_of[n]].push_back(n);
  std::vector<std::vector<NodeId>> senders = members;
  std::vector<std::vector<NodeId>> receivers = members;
  for (std::size_t p = 0; p < members.size(); ++p) {
    rng.shuffle(senders[p]);
    rng.shuffle(receivers[p]);
  }
  const std::size_t rounds = smoke ? 1 : 10;
  const std::vector<std::int64_t> rates = rate_mix(rounds * pops, 30, 50, rng);
  const std::uint32_t first_cross = flow;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint32_t shift = 1 + static_cast<std::uint32_t>(4 * r) % (pops - 1);
    for (std::uint32_t p = 0; p < pops; ++p) {
      const std::uint32_t q = (p + shift) % pops;
      const std::vector<NodeId>& from = senders[1 + p];
      const std::vector<NodeId>& to = receivers[1 + q];
      // PoP p sends once per round; PoP q receives once per round too,
      // because the shift is a bijection.
      s.flows.push_back(cbr(from[r % from.size()], to[r % to.size()], flow,
                            rates[flow - first_cross],
                            static_cast<std::int64_t>(flow % 100) * kMilli, stop));
      ++flow;
    }
  }

  w.attacker = g.chi_owner;
  w.onset_ns = mid_run_onset(s.duration_ns);
  s.attacks.push_back(drop(w.attacker, 1, 200'000, w.onset_ns, rng.next()));
  w.precision = 2;
  w.threads = std::min(4U, usable_cores());
  w.terminals = {g.chi_feed, g.chi_peer};
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"abilene_pik2_dense", "sprintlink_pi2_flood",
                                                 "sprintlink_chi_sharded"};
  return names;
}

Workload make_workload(std::string_view name, std::uint64_t seed, bool smoke) {
  Stream rng(seed ^ 0x5eed5eed5eed5eedULL);
  Workload w;
  if (name == "abilene_pik2_dense") {
    w = abilene_pik2_dense(seed, smoke, rng);
  } else if (name == "sprintlink_pi2_flood") {
    w = sprintlink_pi2_flood(seed, smoke, rng);
  } else if (name == "sprintlink_chi_sharded") {
    w = sprintlink_chi_sharded(seed, smoke, rng);
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
  }
  w.name = std::string(name);
  if (smoke) w.spec.name += "_smoke";
  return w;
}

sc::ScenarioSpec detached(const Workload& w) {
  sc::ScenarioSpec s = w.spec;
  s.name += "_detached";
  if (s.detector.kind == sc::DetectorKind::kChi) {
    s.detector.kind = sc::DetectorKind::kPik2;
    s.detector.terminals = {w.terminals.front()};
  } else {
    s.detector.terminals.resize(1);
  }
  return s;
}

}  // namespace perfbench

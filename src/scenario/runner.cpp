#include "scenario/runner.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

#include "attacks/attacks.hpp"
#include "crypto/keys.hpp"
#include "detection/chi.hpp"
#include "detection/path_cache.hpp"
#include "detection/pi2.hpp"
#include "detection/pik2.hpp"
#include "routing/install.hpp"
#include "routing/link_state.hpp"
#include "routing/spf.hpp"
#include "routing/topologies.hpp"
#include "sim/churn.hpp"
#include "sim/network.hpp"
#include "sim/shard.hpp"
#include "topo/generator.hpp"
#include "traffic/sources.hpp"
#include "traffic/tcp.hpp"
#include "util/hash.hpp"

namespace fatih::scenario {

namespace {

using util::Duration;
using util::SimTime;

/// Keys are per-run deterministic but independent of the traffic seed.
constexpr std::uint64_t kKeySeedSalt = 98765;

/// Drain window after the traffic horizon, matching the bench harnesses.
constexpr std::int64_t kDrainNs = 2'000'000'000;

std::unique_ptr<topo::GeneratedTopology> make_generated(const ScenarioSpec& s) {
  if (s.topology != TopologyKind::kGenerated) return nullptr;
  if (!topo::validate(topo_params(s.topo))) {
    throw std::invalid_argument("scenario '" + s.name + "': bad topo parameters");
  }
  return std::make_unique<topo::GeneratedTopology>(topo::generate(topo_params(s.topo)));
}

/// The subset of specs the sharded engine accepts. Everything rejected
/// here touches cross-PoP shared state outside the lane/barrier protocol
/// (churn mutates interfaces from the control plane, TCP acks schedule on
/// both endpoints, kModify draws payload tags from the global rng,
/// reliable transport re-arms per-destination timers from sink context,
/// link-state daemons draw from the global rng and flood across PoPs).
void check_shardable(const ScenarioSpec& s) {
  if (s.shards == 0) return;
  auto reject = [&](const char* why) {
    throw std::invalid_argument("scenario '" + s.name + "' cannot shard: " + why);
  };
  if (s.topology != TopologyKind::kGenerated) reject("topology must be generated");
  if (!s.churn.empty()) reject("churn is not supported");
  if (s.routing != RoutingKind::kStatic) reject("link-state routing is not supported");
  if (s.detector.reliable) reject("reliable control transport is not supported");
  for (const FlowSpec& f : s.flows) {
    if (f.kind == FlowKind::kTcp) reject("tcp flows are not supported");
  }
  for (const AttackSpec& a : s.attacks) {
    if (a.kind == AttackKind::kModify) reject("modify attacks are not supported");
  }
  if (s.detector.kind != DetectorKind::kChi && s.detector.terminals.empty()) {
    reject("pi2/pik2 need an explicit terminal set");
  }
}

/// What a spec must pass before anything is built: decode()'s node-id
/// check, which a spec built in code has not been through, then
/// check_shardable.
void check_spec(const ScenarioSpec& s) {
  if (const std::string error = check_node_ids(s); !error.empty()) {
    throw std::invalid_argument("scenario '" + s.name + "': " + error);
  }
  check_shardable(s);
}

sim::ShardPlan shard_plan(const topo::GeneratedTopology* gen, std::uint32_t shards) {
  sim::ShardPlan plan;
  if (gen == nullptr || shards == 0) return plan;
  plan.pop_of = gen->pop_of;
  plan.pops = gen->pops();
  plan.lookahead = gen->min_inter_pop_delay();
  return plan;
}

}  // namespace

std::uint64_t StateDigest::hash() const {
  std::uint64_t h = util::kFnvOffsetBasis;
  h = util::fnv1a64_word(h, static_cast<std::uint64_t>(t_ns));
  h = util::fnv1a64_word(h, dispatched);
  h = util::fnv1a64_word(h, forwarded);
  h = util::fnv1a64_word(h, delivered);
  h = util::fnv1a64_word(h, rng_hash);
  h = util::fnv1a64_word(h, pending_hash);
  h = util::fnv1a64_word(h, detector_hash);
  h = util::fnv1a64_word(h, suspicion_hash);
  h = util::fnv1a64_word(h, suspicion_count);
  return h;
}

struct ScenarioRun::Impl {
  ScenarioSpec spec;
  // Declaration order is construction order: the generated topology (and
  // the shard plan derived from it) must exist before the Network.
  std::unique_ptr<topo::GeneratedTopology> gen;
  sim::Network net;
  crypto::KeyRegistry keys;
  std::shared_ptr<routing::RoutingTables> tables{};
  std::unique_ptr<detection::PathCache> paths{};
  std::unique_ptr<routing::LinkStateRouting> link_state{};  ///< null under static routes

  std::vector<std::unique_ptr<traffic::CbrSource>> cbr{};
  std::vector<std::unique_ptr<traffic::OnOffSource>> onoff{};
  std::vector<std::unique_ptr<traffic::TcpFlow>> tcp{};
  std::vector<std::shared_ptr<attacks::FilterChain>> chains{};
  sim::ChurnSchedule churn{};

  std::unique_ptr<detection::Pi2Engine> pi2{};
  std::unique_ptr<detection::Pik2Engine> pik2{};
  std::unique_ptr<detection::ChiEngine> chi{};
  detection::QueueValidator* chi_queue = nullptr;  ///< chi's one monitored queue

  /// Per-node forwarded/delivered counters: each slot is written only by
  /// the node's own simulator (one PoP = one worker under the sharded
  /// engine), so the taps stay race-free without atomics, and the summed
  /// totals are identical to the old shared counters.
  std::vector<std::uint64_t> forwarded_by_node{};
  std::vector<std::uint64_t> delivered_by_node{};

  std::unique_ptr<sim::ShardEngine> engine{};

  std::vector<std::int64_t> checkpoint_times{};
  std::size_t next_checkpoint = 0;
  std::vector<Checkpoint> checkpoints{};

  explicit Impl(const ScenarioSpec& s, unsigned threads)
      : spec((check_spec(s), s)),
        gen(make_generated(s)),
        net(s.seed, shard_plan(gen.get(), s.shards)),
        keys(s.seed + kKeySeedSalt) {
    build_topology();
    build_routing();
    install_counters();
    build_traffic();
    build_attacks();
    build_churn();
    build_detector();
    warm_path_cache();
    plan_checkpoints();
    if (spec.shards > 0) {
      engine = std::make_unique<sim::ShardEngine>(net, threads > 0 ? threads : spec.shards);
    }
  }

  [[nodiscard]] std::uint64_t forwarded() const {
    return std::accumulate(forwarded_by_node.begin(), forwarded_by_node.end(),
                           std::uint64_t{0});
  }
  [[nodiscard]] std::uint64_t delivered() const {
    return std::accumulate(delivered_by_node.begin(), delivered_by_node.end(),
                           std::uint64_t{0});
  }

  [[nodiscard]] std::int64_t end_ns() const { return spec.duration_ns + kDrainNs; }

  void build_topology() {
    switch (spec.topology) {
      case TopologyKind::kLine4: {
        for (util::NodeId i = 0; i < 4; ++i) net.add_router(util::node_name(i));
        sim::LinkConfig cfg;
        cfg.bandwidth_bps = 1e8;
        cfg.delay = Duration::millis(1);
        cfg.queue_limit_bytes = 64000;
        for (util::NodeId i = 0; i + 1 < 4; ++i) {
          net.connect(i, static_cast<util::NodeId>(i + 1), cfg);
        }
        finish_routes(Duration::micros(20), Duration::micros(10));
        break;
      }
      case TopologyKind::kAbilene: {
        for (util::NodeId n = 0; n <= routing::kNewYork; ++n) {
          net.add_router(routing::abilene_name(n));
        }
        for (const auto& l : routing::abilene_links()) {
          sim::LinkConfig link;
          link.delay = Duration::millis(l.delay_ms);
          link.metric = l.delay_ms;
          link.bandwidth_bps = 1e9;
          link.queue_limit_bytes = 256000;
          net.connect(l.a, l.b, link);
        }
        finish_routes(Duration::micros(20), Duration::micros(10));
        break;
      }
      case TopologyKind::kChiBottleneck: {
        // Fig. 6.4: s1,s2 feed r; the r -> rd queue is the bottleneck.
        net.add_router("s1");
        net.add_router("s2");
        net.add_router("r");
        net.add_router("rd");
        sim::LinkConfig edge;
        edge.bandwidth_bps = 1e8;
        edge.delay = Duration::millis(1);
        sim::LinkConfig core;
        core.bandwidth_bps = 1e7;
        core.delay = Duration::millis(2);
        core.queue_limit_bytes = 50000;
        if (spec.detector.red) {
          core.queue = sim::QueueKind::kRed;
          core.red.weight = 0.002;
          core.red.min_threshold = 15000;
          core.red.max_threshold = 45000;
          core.red.max_probability = 0.1;
          core.red.gentle = true;
          core.red.byte_limit = 90000;
          core.red.mean_packet_size = 1000;
          core.red.drain_rate = 1e7 / 8;
        }
        net.connect(0, 2, edge);
        net.connect(1, 2, edge);
        net.connect(2, 3, core);
        finish_routes(Duration::micros(20), Duration::micros(50));
        break;
      }
      case TopologyKind::kGenerated: {
        const topo::GeneratedTopology& g = *gen;
        for (std::uint32_t n = 0; n < g.routers(); ++n) {
          std::string name("g");  // append, not operator+: GCC 12 -Wrestrict
          name += std::to_string(n);
          net.add_router(name);
        }
        for (const topo::GenLink& l : g.links) {
          sim::LinkConfig cfg;
          cfg.bandwidth_bps = g.params.bandwidth_bps;
          cfg.queue_limit_bytes = g.params.queue_limit_bytes;
          cfg.delay = Duration::nanos(l.inter ? g.params.inter_delay_ns
                                              : g.params.intra_delay_ns);
          cfg.metric = l.metric();
          net.connect(l.a, l.b, cfg);
        }
        finish_routes(Duration::micros(20), Duration::micros(10));
        break;
      }
    }
  }

  void finish_routes(Duration proc_base, Duration proc_jitter) {
    tables = std::make_shared<routing::RoutingTables>(routing::Topology::from_network(net));
    if (spec.routing == RoutingKind::kStatic) routing::install_static_routes(net, *tables);
    paths = std::make_unique<detection::PathCache>(tables);
    for (util::NodeId n = 0; n < net.node_count(); ++n) {
      net.router(n).set_processing_delay(proc_base, proc_jitter);
    }
  }

  void build_routing() {
    if (spec.routing != RoutingKind::kLinkState) return;
    link_state = std::make_unique<routing::LinkStateRouting>(net, keys, routing::LinkStateConfig{});
    link_state->start();
  }

  void install_counters() {
    forwarded_by_node.assign(net.node_count(), 0);
    delivered_by_node.assign(net.node_count(), 0);
    for (util::NodeId n = 0; n < net.node_count(); ++n) {
      std::uint64_t& fwd = forwarded_by_node[n];
      net.router(n).add_forward_tap(
          [&fwd](const sim::Packet&, util::NodeId, std::size_t, SimTime) { ++fwd; });
      std::uint64_t& del = delivered_by_node[n];
      net.node(n).add_local_handler(
          [&del](const sim::Packet&, util::NodeId, SimTime) { ++del; });
    }
  }

  void build_traffic() {
    for (const FlowSpec& f : spec.flows) {
      const auto start = SimTime::from_nanos(f.start_ns);
      const auto stop =
          f.stop_ns > 0 ? SimTime::from_nanos(f.stop_ns) : SimTime::infinity();
      switch (f.kind) {
        case FlowKind::kCbr: {
          traffic::CbrSource::Config c;
          c.src = f.src;
          c.dst = f.dst;
          c.flow_id = f.flow_id;
          c.payload_bytes = f.payload_bytes;
          c.rate_pps = static_cast<double>(f.rate_mpps) / 1000.0;
          c.start = start;
          c.stop = stop;
          cbr.push_back(std::make_unique<traffic::CbrSource>(net, c));
          break;
        }
        case FlowKind::kOnOff: {
          traffic::OnOffSource::Config c;
          c.src = f.src;
          c.dst = f.dst;
          c.flow_id = f.flow_id;
          c.payload_bytes = f.payload_bytes;
          c.on_rate_pps = static_cast<double>(f.rate_mpps) / 1000.0;
          c.mean_on = Duration::nanos(f.mean_on_ns);
          c.mean_off = Duration::nanos(f.mean_off_ns);
          c.start = start;
          c.stop = stop;
          onoff.push_back(std::make_unique<traffic::OnOffSource>(net, c));
          break;
        }
        case FlowKind::kTcp: {
          traffic::TcpConfig c;
          c.mss_bytes = f.payload_bytes;
          tcp.push_back(
              std::make_unique<traffic::TcpFlow>(net, f.src, f.dst, f.flow_id, c));
          tcp.back()->start(start);
          break;
        }
      }
    }
  }

  void build_attacks() {
    // One FilterChain per compromised router, attacks composing in spec
    // order (the order a hand-written bench would install them).
    for (const AttackSpec& a : spec.attacks) {
      attacks::FlowMatch match;
      match.flow_ids = a.flow_ids;
      const double fraction = static_cast<double>(a.fraction_ppm) / 1e6;
      const auto from = SimTime::from_nanos(a.active_from_ns);
      std::shared_ptr<sim::ForwardFilter> filter;
      switch (a.kind) {
        case AttackKind::kRateDrop:
          filter = std::make_shared<attacks::RateDropAttack>(match, fraction, from, a.seed);
          break;
        case AttackKind::kQueueGateDrop:
          filter = std::make_shared<attacks::QueueThresholdDropAttack>(
              match, static_cast<double>(a.threshold_ppm) / 1e6, fraction, from, a.seed);
          break;
        case AttackKind::kRedGateDrop:
          filter = std::make_shared<attacks::RedAvgThresholdDropAttack>(
              match, static_cast<double>(a.threshold_bytes), fraction, from, a.seed);
          break;
        case AttackKind::kModify:
          filter =
              std::make_shared<attacks::ModificationAttack>(match, fraction, from, a.seed);
          break;
        case AttackKind::kReorder:
          filter = std::make_shared<attacks::ReorderAttack>(
              match, fraction, Duration::nanos(a.delay_ns), from, a.seed);
          break;
      }
      auto existing = net.router(a.at).forward_filter();
      auto chain = std::dynamic_pointer_cast<attacks::FilterChain>(existing);
      if (chain == nullptr) {
        chain = std::make_shared<attacks::FilterChain>();
        chains.push_back(chain);
        net.router(a.at).set_forward_filter(chain);
      }
      chain->append(std::move(filter));
    }
  }

  void build_churn() {
    for (const ChurnSpec& c : spec.churn) {
      const auto at = SimTime::from_nanos(c.at_ns);
      switch (c.kind) {
        case ChurnSpec::Kind::kLinkDown:
          churn.link_down(c.a, c.b, at);
          break;
        case ChurnSpec::Kind::kLinkUp:
          churn.link_up(c.a, c.b, at);
          break;
        case ChurnSpec::Kind::kRouterCrash:
          churn.router_crash(c.a, at);
          break;
        case ChurnSpec::Kind::kRouterRestart:
          churn.router_restart(c.a, at);
          break;
      }
    }
    if (!spec.churn.empty()) churn.arm(net);
  }

  [[nodiscard]] std::vector<util::NodeId> terminals() const {
    if (!spec.detector.terminals.empty()) return spec.detector.terminals;
    std::vector<util::NodeId> all;
    for (util::NodeId n = 0; n < net.node_count(); ++n) all.push_back(n);
    return all;
  }

  void build_detector() {
    const detection::RoundClock clock{SimTime::from_nanos(spec.detector.epoch_ns),
                                      Duration::nanos(spec.detector.tau_ns)};
    switch (spec.detector.kind) {
      case DetectorKind::kPi2: {
        detection::Pi2Config cfg;
        cfg.clock = clock;
        cfg.k = spec.detector.k;
        cfg.rounds = spec.detector.rounds;
        cfg.reliable.enabled = spec.detector.reliable;
        pi2 = std::make_unique<detection::Pi2Engine>(net, keys, *paths, terminals(), cfg);
        pi2->start();
        break;
      }
      case DetectorKind::kPik2: {
        detection::Pik2Config cfg;
        cfg.clock = clock;
        cfg.k = spec.detector.k;
        cfg.rounds = spec.detector.rounds;
        cfg.reliable.enabled = spec.detector.reliable;
        pik2 = std::make_unique<detection::Pik2Engine>(net, keys, *paths, terminals(), cfg);
        pik2->start();
        break;
      }
      case DetectorKind::kChi: {
        detection::ChiConfig cfg;
        cfg.clock = clock;
        cfg.learning_rounds = spec.detector.learning_rounds;
        cfg.rounds = spec.detector.rounds;
        cfg.reliable.enabled = spec.detector.reliable;
        // The monitored queue is between the last two routers (r -> rd on
        // the Fig. 6.4 fabric, the line's tail link elsewhere) — except on
        // generated graphs, which designate a bottleneck pair confined to
        // PoP 0 so every chi tap fires on one shard.
        const auto owner = gen != nullptr
                               ? gen->chi_owner
                               : static_cast<util::NodeId>(net.node_count() - 2);
        const auto peer = gen != nullptr
                              ? gen->chi_peer
                              : static_cast<util::NodeId>(net.node_count() - 1);
        // Through ChiEngine: it owns the reliable channel a validator ships
        // its reports over when `reliable` is set.
        chi = std::make_unique<detection::ChiEngine>(net, keys, *paths, cfg);
        chi_queue = &chi->monitor_queue(owner, peer);
        chi->start();
        break;
      }
    }
    if (link_state != nullptr) {
      // The response (§2.4.3): the reporter floods a signed alert and
      // every correct router excludes the segment from its routes.
      driver().set_suspicion_handler([this](const detection::Suspicion& s) {
        link_state->announce_suspicion(s.reporter, s.segment, s.interval);
      });
    }
  }

  /// The round bookkeeping of the one detector the spec commissions.
  [[nodiscard]] detection::RoundDriver& driver() const {
    if (pi2 != nullptr) return *pi2;
    if (pik2 != nullptr) return *pik2;
    return *chi_queue;
  }

  void warm_path_cache() {
    if (!net.sharded()) return;
    // The PathCache memoizes lazily through a shared map. Under the
    // sharded engine the per-packet summary taps query it from every PoP
    // worker, so resolve every pair they can ask for — data-flow pairs,
    // the monitored terminal matrix, and the chi bottleneck endpoints —
    // while construction is still single-threaded.
    auto warm = [this](util::NodeId a, util::NodeId b) {
      if (a == b) return;
      (void)paths->path(a, b);
      (void)paths->path(b, a);
    };
    for (const FlowSpec& f : spec.flows) warm(f.src, f.dst);
    if (spec.detector.kind != DetectorKind::kChi) {
      const std::vector<util::NodeId> ts = terminals();
      for (util::NodeId a : ts) {
        for (util::NodeId b : ts) {
          if (a != b) (void)paths->path(a, b);
        }
      }
    }
    if (gen != nullptr) {
      warm(gen->chi_owner, gen->chi_peer);
      warm(gen->chi_feed, gen->chi_peer);
    }
  }

  void plan_checkpoints() {
    // One checkpoint per detection-round boundary: epoch + k*tau. These
    // are the bisection grid — restore targets and drift windows both
    // land on them.
    const std::int64_t tau = spec.detector.tau_ns;
    if (tau <= 0) return;
    for (std::int64_t t = spec.detector.epoch_ns + tau; t <= end_ns(); t += tau) {
      checkpoint_times.push_back(t);
    }
  }

  [[nodiscard]] std::uint64_t detector_fingerprint() const {
    if (pi2 != nullptr) return pi2->state_fingerprint();
    if (pik2 != nullptr) return pik2->state_fingerprint();
    if (chi_queue != nullptr) return chi_queue->state_fingerprint();
    return 0;
  }

  [[nodiscard]] const std::vector<detection::Suspicion>& suspicions() const {
    return driver().suspicions();
  }

  [[nodiscard]] StateDigest make_digest() {
    StateDigest d;
    d.t_ns = net.sim().now().nanos();
    // Sharded runs fold over the control + per-PoP simulators and the
    // per-node rng streams; each ingredient is worker-count-invariant, so
    // the digest depends on the spec (incl. shard count) alone. Classic
    // runs keep their original single-simulator digest byte-for-byte.
    d.dispatched =
        engine != nullptr ? engine->total_dispatched() : net.sim().events_dispatched();
    d.forwarded = forwarded();
    d.delivered = delivered();
    d.rng_hash = net.sharded() ? net.rng_fingerprint() : net.rng().state_hash();
    d.pending_hash =
        engine != nullptr ? engine->pending_fingerprint() : net.sim().pending_fingerprint();
    d.detector_hash = detector_fingerprint();
    std::uint64_t sh = util::kFnvOffsetBasis;
    for (const auto& s : suspicions()) {
      const std::string text = s.to_string();
      sh = util::fnv1a64(text.data(), text.size(), sh);
    }
    d.suspicion_hash = sh;
    d.suspicion_count = suspicions().size();
    return d;
  }

  void advance(std::int64_t t_ns) {
    if (engine != nullptr) {
      engine->run_until(SimTime::from_nanos(t_ns));
    } else {
      net.sim().run_until(SimTime::from_nanos(t_ns));
    }
  }

  void run_to(std::int64_t t_ns) {
    if (t_ns > end_ns()) t_ns = end_ns();
    while (next_checkpoint < checkpoint_times.size() &&
           checkpoint_times[next_checkpoint] <= t_ns) {
      const std::int64_t at = checkpoint_times[next_checkpoint];
      advance(at);
      checkpoints.push_back(Checkpoint{at, make_digest().hash()});
      ++next_checkpoint;
    }
    advance(t_ns);
  }
};

ScenarioRun::ScenarioRun(const ScenarioSpec& spec)
    : impl_(std::make_unique<Impl>(spec, 0)) {}

ScenarioRun::ScenarioRun(const ScenarioSpec& spec, unsigned threads)
    : impl_(std::make_unique<Impl>(spec, threads)) {}

ScenarioRun::~ScenarioRun() = default;

void ScenarioRun::run_to(std::int64_t t_ns) { impl_->run_to(t_ns); }

std::int64_t ScenarioRun::end_time_ns() const { return impl_->end_ns(); }

StateDigest ScenarioRun::digest() const { return impl_->make_digest(); }

std::vector<std::string> ScenarioRun::suspicion_strings() const {
  std::vector<std::string> out;
  for (const auto& s : impl_->suspicions()) out.push_back(s.to_string());
  return out;
}

const std::vector<Checkpoint>& ScenarioRun::checkpoints() const { return impl_->checkpoints; }

const ScenarioSpec& ScenarioRun::spec() const { return impl_->spec; }

sim::Network& ScenarioRun::network() { return impl_->net; }

const routing::LinkStateRouting* ScenarioRun::routing() const { return impl_->link_state.get(); }

ScenarioResult ScenarioRun::finish() {
  impl_->run_to(impl_->end_ns());
  ScenarioResult r;
  r.name = impl_->spec.name;
  r.spec_hash = spec_hash(impl_->spec);
  r.forwarded = impl_->forwarded();
  r.delivered = impl_->delivered();
  r.dispatched = impl_->engine != nullptr ? impl_->engine->total_dispatched()
                                          : impl_->net.sim().events_dispatched();
  r.final_digest = impl_->make_digest().hash();
  r.suspicions = suspicion_strings();
  r.checkpoints = impl_->checkpoints;
  return r;
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  ScenarioRun run(spec);
  return run.finish();
}

ScenarioResult run_scenario(const ScenarioSpec& spec, unsigned threads) {
  ScenarioRun run(spec, threads);
  return run.finish();
}

}  // namespace fatih::scenario

// Declarative scenario descriptions for the fleet runner.
//
// A ScenarioSpec is the complete, self-contained recipe for one
// experiment: topology, traffic matrix, attack family, churn schedule,
// detector configuration and seed. Everything the bench binaries used to
// hard-code in C++ becomes data, so a scenario can be hashed, swept over
// worker processes, embedded in a snapshot, and replayed bit-identically
// by any future build.
//
// The codec is a deterministic line-oriented text format (one `key value`
// or `section key=value ...` statement per line). encode() produces a
// canonical form — fixed statement order, fixed key order, integers for
// every quantity (durations in nanoseconds, rates in milli-pps) — so
// spec_hash() is stable across platforms and the encoded text is both the
// fleet's on-disk spec format and the snapshot's embedded recipe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/generator.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace fatih::scenario {

/// Which reference fabric the scenario runs on. Each kind fully determines
/// routers, links, static routes and processing delays (see runner.cpp).
enum class TopologyKind : std::uint8_t {
  kLine4,          ///< r0-r1-r2-r3 line, 100 Mb/s, 1 ms links
  kAbilene,        ///< the 11-PoP Internet2 backbone (Fig. 5.6)
  kChiBottleneck,  ///< Fig. 6.4: s1,s2 -> r -> rd with the monitored queue
  kGenerated,      ///< seeded PoP-clustered graph from src/topo (see TopoSpec)
};

/// Parameters of a generated topology (topology == kGenerated). Mirrors
/// topo::TopoParams, minus the non-spec knobs (bandwidth and queue limits
/// stay at the generator defaults so the canonical form stays integral).
/// The `topo` statement is emitted only for generated topologies, so the
/// encoding of every pre-existing spec is unchanged.
struct TopoSpec {
  std::uint32_t routers = 87;
  std::uint32_t links = 161;
  std::uint32_t pops = 11;
  std::uint32_t max_degree = 24;
  std::uint64_t seed = 1;
  std::int64_t intra_delay_ns = 200'000;    ///< intra-PoP propagation delay
  std::int64_t inter_delay_ns = 2'000'000;  ///< inter-PoP delay = shard lookahead
};

/// The generator parameters `t` names; bandwidth and queue limits keep the
/// generator defaults.
[[nodiscard]] topo::TopoParams topo_params(const TopoSpec& t);
/// The spec form of `p`: its bandwidth and queue limits are dropped.
[[nodiscard]] TopoSpec topo_spec(const topo::TopoParams& p);

/// Which detection protocol the scenario commissions.
enum class DetectorKind : std::uint8_t {
  kPi2,   ///< Protocol Pi2 (precision 2, flooding dissemination)
  kPik2,  ///< Protocol Pi(k+2) (end-to-end exchange)
  kChi,   ///< Protocol chi (queue replay at the Fig. 6.4 bottleneck)
};

/// How routers learn their routes. Topology, processing delays and the
/// detectors' path view come from central SPF under either kind.
enum class RoutingKind : std::uint8_t {
  kStatic,     ///< central SPF installed as static routes before t = 0
  kLinkState,  ///< link-state daemons with the Zebra timers (LinkStateConfig
               ///< defaults); every suspicion is flooded as a signed alert
               ///< and routed around
};

/// Traffic source families (src/traffic).
enum class FlowKind : std::uint8_t { kCbr, kOnOff, kTcp };

/// Data-plane attack families (src/attacks) expressible in a spec.
enum class AttackKind : std::uint8_t {
  kRateDrop,       ///< drop a fraction of matching packets
  kQueueGateDrop,  ///< drop only while the queue is >= threshold full
  kRedGateDrop,    ///< drop while the RED average exceeds threshold bytes
  kModify,         ///< replace payloads (conservation-of-content threat)
  kReorder,        ///< hold packets back by delay_ns
};

/// One traffic source. Times are absolute sim nanoseconds; rates are in
/// milli-packets-per-second so the canonical form stays integral.
struct FlowSpec {
  FlowKind kind = FlowKind::kCbr;
  util::NodeId src = 0;
  util::NodeId dst = 0;
  std::uint32_t flow_id = 0;
  std::int64_t rate_mpps = 0;  ///< milli-packets/s (CBR and OnOff on-rate)
  std::uint32_t payload_bytes = 960;
  std::int64_t start_ns = 0;
  std::int64_t stop_ns = 0;
  std::int64_t mean_on_ns = 0;   ///< OnOff burst mean
  std::int64_t mean_off_ns = 0;  ///< OnOff gap mean
};

/// One compromised router running one attack filter. Multiple attacks on
/// one router compose through a FilterChain in spec order.
struct AttackSpec {
  AttackKind kind = AttackKind::kRateDrop;
  util::NodeId at = 0;                   ///< the compromised router
  std::vector<std::uint32_t> flow_ids{};  ///< empty = every flow
  std::int64_t fraction_ppm = 1'000'000;  ///< drop/modify fraction, parts/million
  std::int64_t threshold_ppm = 0;  ///< queue-fill gate, ppm of full (kQueueGateDrop)
  std::int64_t threshold_bytes = 0;  ///< RED average gate (kRedGateDrop)
  std::int64_t delay_ns = 0;         ///< reorder hold-back
  std::int64_t active_from_ns = 0;
  std::uint64_t seed = 1;
};

/// One scripted churn event (mirrors sim::ChurnEvent).
struct ChurnSpec {
  enum class Kind : std::uint8_t { kLinkDown, kLinkUp, kRouterCrash, kRouterRestart };
  Kind kind = Kind::kLinkDown;
  std::int64_t at_ns = 0;
  util::NodeId a = 0;
  util::NodeId b = 0;  ///< unused for router events
};

/// Detector commissioning parameters. Only the fields relevant to `kind`
/// are consumed; the rest stay at defaults so the canonical form is total.
struct DetectorSpec {
  DetectorKind kind = DetectorKind::kPik2;
  std::int64_t epoch_ns = 0;              ///< round-clock epoch
  std::int64_t tau_ns = 1'000'000'000;    ///< round length
  std::int64_t rounds = 5;                ///< 0 = run until simulation ends
  std::uint32_t k = 1;                    ///< Pi2 / Pi(k+2) precision parameter
  std::int64_t learning_rounds = 3;       ///< chi calibration rounds
  bool reliable = false;                  ///< ack/retransmit control transport
  bool red = false;                       ///< chi: RED bottleneck discipline
  std::vector<util::NodeId> terminals{};  ///< Pi2/Pik2 monitored path ends
};

/// The complete scenario recipe.
struct ScenarioSpec {
  std::string name{};
  TopologyKind topology = TopologyKind::kLine4;
  std::uint64_t seed = 1;
  std::int64_t duration_ns = 0;  ///< traffic horizon; run ends 2 s later
  TopoSpec topo{};               ///< generated-topology knobs (kGenerated only)
  /// 0 = classic single-simulator engine. > 0 selects the sharded engine
  /// (one simulator per PoP) and is the default worker-thread count; runs
  /// may override the thread count without changing the digest, which is
  /// shard-count- and thread-count-invariant by construction. Encoded as
  /// `engine shards=N` only when non-zero, so existing specs keep their
  /// byte-identical canonical form.
  std::uint32_t shards = 0;
  /// Encoded as `routing link_state` only when not static, so existing
  /// specs keep their canonical form.
  RoutingKind routing = RoutingKind::kStatic;
  DetectorSpec detector{};
  std::vector<FlowSpec> flows{};
  std::vector<AttackSpec> attacks{};
  std::vector<ChurnSpec> churn{};
};

/// Canonical text form (see file header). decode(encode(s)) == s.
[[nodiscard]] std::string encode(const ScenarioSpec& spec);

/// Parses a spec. Returns false and sets `error` (with a line number) on
/// malformed input: unknown sections/keys, bad integers, missing header,
/// or a node id outside the topology (naming the statement).
[[nodiscard]] bool decode(const std::string& text, ScenarioSpec& out, std::string& error);

/// Empty when every node id the spec names is one of its topology's
/// routers; otherwise names the first statement and field that is not.
/// decode() rejects such text and ScenarioRun such a spec, however it was
/// built.
[[nodiscard]] std::string check_node_ids(const ScenarioSpec& spec);

/// FNV-1a 64 (util/hash.hpp) over the canonical encoding: the corpus key
/// for the scenario.
[[nodiscard]] std::uint64_t spec_hash(const ScenarioSpec& spec);

[[nodiscard]] const char* topology_name(TopologyKind k);
[[nodiscard]] const char* routing_name(RoutingKind k);
[[nodiscard]] const char* detector_name(DetectorKind k);
[[nodiscard]] const char* flow_name(FlowKind k);
[[nodiscard]] const char* attack_name(AttackKind k);
[[nodiscard]] const char* churn_name(ChurnSpec::Kind k);

}  // namespace fatih::scenario

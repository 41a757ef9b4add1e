// Seeded, degree-matched ISP topology generator (Rocketfuel scale).
//
// The paper's graph-analysis results (Figs. 5.2/5.4) are measured on
// Rocketfuel-derived maps: Sprintlink (315 routers / 972 links, 45 PoPs)
// and EBONE (87 / 161, 11 PoPs). This module generates deterministic
// PoP-clustered graphs of that shape at any scale: contiguous node-id
// ranges per PoP, a preferential-attachment tree inside each PoP (the
// heavy-tailed access/aggregation degrees Rocketfuel observes), a hub
// backbone ring plus preferential chords between PoPs, and intra-PoP fill
// links up to the target link count.
//
// Two structural guarantees are load-bearing for the sharded engine
// (src/sim/shard.hpp):
//   1. Inter-PoP links exist only between the per-PoP *core* routers, and
//      every inter-PoP link has the same propagation delay
//      `inter_delay_ns` — the conservative lookahead window. Core routers
//      are the first `core_count(pop)` ids of each PoP.
//   2. A designated chi bottleneck (chi_owner -> chi_peer, fed by
//      chi_feed) sits entirely inside PoP 0 with every neighbor of
//      chi_owner also in PoP 0, so all of Protocol chi's taps fire on one
//      shard.
//
// Same params (including seed) => byte-identical topology, pinned by
// digest() in tests/topo/.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/time.hpp"
#include "util/types.hpp"

namespace fatih::topo {

/// Generator parameters. Everything that shapes the graph is here, so the
/// scenario codec can round-trip a topology as a handful of integers.
struct TopoParams {
  std::uint32_t routers = 87;
  std::uint32_t links = 161;  ///< duplex link target (>= spanning structure)
  std::uint32_t pops = 11;
  std::uint32_t max_degree = 45;  ///< per-node cap, matches Rocketfuel's hubs
  std::uint64_t seed = 1;
  std::int64_t intra_delay_ns = 200'000;    ///< 0.2 ms metro links
  std::int64_t inter_delay_ns = 2'000'000;  ///< 2 ms backbone links = lookahead
  double bandwidth_bps = 1e8;
  std::uint32_t queue_limit_bytes = 64000;
};

/// One duplex link. `inter` marks a backbone (PoP-crossing) link, which
/// carries `inter_delay_ns` and a higher routing metric.
struct GenLink {
  util::NodeId a;
  util::NodeId b;
  bool inter;

  /// Routing metric. Backbone links cost more so shortest paths hug the
  /// PoP structure (climb to the local core, cross, descend).
  [[nodiscard]] std::uint32_t metric() const { return inter ? 10 : 1; }
};

/// The generated graph plus the designated structure the scenario layer
/// keys off (per-PoP hubs, the chi bottleneck triple).
struct GeneratedTopology {
  TopoParams params;
  std::vector<std::uint32_t> pop_of;  ///< node id -> PoP index
  std::vector<GenLink> links;
  std::vector<util::NodeId> pop_hub;  ///< first core router of each PoP
  util::NodeId chi_owner = util::kInvalidNode;  ///< queue owner, PoP 0, non-core
  util::NodeId chi_peer = util::kInvalidNode;   ///< adjacent peer (PoP 0 hub)
  util::NodeId chi_feed = util::kInvalidNode;   ///< feeder behind chi_owner

  [[nodiscard]] std::uint32_t routers() const {
    return static_cast<std::uint32_t>(pop_of.size());
  }
  [[nodiscard]] std::uint32_t pops() const {
    return static_cast<std::uint32_t>(pop_hub.size());
  }

  /// Node degrees (duplex links counted once per endpoint).
  [[nodiscard]] std::vector<std::uint32_t> degrees() const;
  /// Histogram bucketed as deg 1, 2, 3-4, 5-8, 9-16, 17+ — the coarse
  /// Rocketfuel shape the property tests pin.
  [[nodiscard]] std::array<std::uint32_t, 6> degree_histogram() const;
  [[nodiscard]] bool connected() const;
  /// Minimum propagation delay over PoP-crossing links — the sharded
  /// engine's conservative lookahead. Uniform by construction.
  [[nodiscard]] util::Duration min_inter_pop_delay() const {
    return util::Duration::nanos(params.inter_delay_ns);
  }
  /// FNV-1a over every structural byte (params, pops, links, designated
  /// nodes); the seed-stability tests pin this.
  [[nodiscard]] std::uint64_t digest() const;
};

/// Deterministically generates a topology from `p`. Aborts (assert) on
/// degenerate parameters; use validate() first for untrusted input.
[[nodiscard]] GeneratedTopology generate(const TopoParams& p);

/// True iff the parameters describe a generatable graph (enough routers
/// per PoP, link budget at least the spanning structure, inter delay
/// strictly greater than intra so the lookahead window is non-trivial).
[[nodiscard]] bool validate(const TopoParams& p);

/// Rocketfuel presets (dissertation Table 5.x): Sprintlink 315/972/45 and
/// EBONE 87/161/11.
[[nodiscard]] TopoParams sprintlink();
[[nodiscard]] TopoParams ebone();

}  // namespace fatih::topo

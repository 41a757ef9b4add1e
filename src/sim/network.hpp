// Network: owns the simulator, the nodes, and the wiring between them.
//
// Experiments build a Network, connect routers/hosts with duplex links
// (two simplex interfaces), attach traffic agents and detection engines,
// then run the simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/node.hpp"
#include "sim/red.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace fatih::sim {

/// Which queue discipline a link's output interfaces use.
enum class QueueKind { kDropTail, kRed };

/// Duplex link configuration. Applied symmetrically to both directions.
struct LinkConfig {
  double bandwidth_bps = 1e8;
  util::Duration delay = util::Duration::millis(1);
  std::size_t queue_limit_bytes = 64000;
  QueueKind queue = QueueKind::kDropTail;
  RedParams red;       ///< used when queue == kRed (byte_limit overrides queue_limit_bytes)
  std::uint32_t metric = 1;  ///< routing cost, symmetric
};

/// A record of one simplex adjacency, for topology export to the routing
/// library.
struct Adjacency {
  util::NodeId from;
  util::NodeId to;
  std::uint32_t metric;
  LinkParams link;
};

/// Container and factory for a simulated network.
class Network {
 public:
  /// Observer of duplex-link administrative state changes (both simplex
  /// directions change together).
  using LinkStatusHook =
      std::function<void(util::NodeId a, util::NodeId b, bool up, util::SimTime)>;
  /// Observer of router crash/restart.
  using NodeStatusHook = std::function<void(util::NodeId node, bool up, util::SimTime)>;

  explicit Network(std::uint64_t seed);
  /// Sharded mode: one Simulator per PoP plus the control simulator that
  /// sim() returns (round timers land there). Nodes must subsequently be
  /// added in id order so `plan.pop_of` lines up. Packet identity (uid /
  /// payload tag) switches to per-node streams so no global rng is touched
  /// from the parallel pass.
  Network(std::uint64_t seed, ShardPlan plan);

  /// The control simulator in sharded mode; the only simulator otherwise.
  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] util::Rng& rng() { return rng_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  // ------------------------------------------------------------- sharding
  [[nodiscard]] bool sharded() const { return !pop_sims_.empty(); }
  [[nodiscard]] const ShardPlan& plan() const { return plan_; }
  /// The simulator a node's events run on: its PoP's simulator when
  /// sharded, sim() otherwise. Traffic agents pinned to a node must
  /// schedule here, never on sim().
  [[nodiscard]] Simulator& node_sim(util::NodeId id) {
    return pop_sims_.empty() ? sim_ : *pop_sims_[plan_.pop_of[id]];
  }
  [[nodiscard]] std::uint32_t pop_count() const {
    return static_cast<std::uint32_t>(pop_sims_.size());
  }
  [[nodiscard]] Simulator& pop_sim(std::uint32_t pop) { return *pop_sims_.at(pop); }
  /// RNG digest for state fingerprints: the global stream, plus — sharded
  /// only — every per-node identity stream in node order.
  [[nodiscard]] std::uint64_t rng_fingerprint() const;

  Router& add_router(std::string name);
  Host& add_host(std::string name);

  /// Connects a and b with a duplex link (two interfaces, two simplex links).
  void connect(util::NodeId a, util::NodeId b, const LinkConfig& cfg);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] Node& node(util::NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] const Node& node(util::NodeId id) const { return *nodes_.at(id); }
  /// Requires the node to be a Router.
  [[nodiscard]] Router& router(util::NodeId id);
  /// Requires the node to be a Host.
  [[nodiscard]] Host& host(util::NodeId id);
  [[nodiscard]] bool is_router(util::NodeId id) const;

  /// All simplex adjacencies, for routing computations. Includes down
  /// links; filter with link_usable() for a live view.
  [[nodiscard]] const std::vector<Adjacency>& adjacencies() const { return adjacencies_; }

  // ----------------------------------------------------------- topology churn
  //
  // Links have an administrative state (set_link_up) and nodes a crash
  // state; the effective state of a simplex interface a→b is
  // admin(a,b) && up(a). Packets reaching a crashed node die there.

  /// Takes the duplex link a—b down or up. Down flushes both queues and
  /// loses in-flight packets. No-op if already in the requested state.
  void set_link_up(util::NodeId a, util::NodeId b, bool up);
  /// Administrative state of the duplex link a—b (true if never touched).
  [[nodiscard]] bool link_admin_up(util::NodeId a, util::NodeId b) const;
  /// True iff the link is admin-up AND both endpoints are alive — the
  /// condition under which a→b traffic can actually get through.
  [[nodiscard]] bool link_usable(util::NodeId a, util::NodeId b) const;

  /// Crashes a router: it black-holes everything, its interfaces drop
  /// their queues, and its forwarding table (soft state) is erased.
  void crash_router(util::NodeId id);
  /// Restarts a crashed router with empty soft state; links that were
  /// admin-down stay down.
  void restart_router(util::NodeId id);
  [[nodiscard]] bool node_up(util::NodeId id) const { return nodes_.at(id)->up(); }

  /// Status observers (fire synchronously from the mutators above).
  void add_link_status_hook(LinkStatusHook h) { link_hooks_.push_back(std::move(h)); }
  void add_node_status_hook(NodeStatusHook h) { node_hooks_.push_back(std::move(h)); }

  /// Creates a packet with a fresh uid and creation timestamp.
  [[nodiscard]] Packet make_packet(PacketHeader hdr, std::uint32_t payload_bytes);

 private:
  std::unique_ptr<OutputQueue> make_queue(const LinkConfig& cfg);
  static std::uint64_t link_key(util::NodeId a, util::NodeId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  /// Re-derives the effective up state of every interface on `id` after a
  /// node or link state change.
  void apply_interface_states(util::NodeId id);

  std::uint64_t seed_;
  Simulator sim_;
  util::Rng rng_;
  ShardPlan plan_;
  std::vector<std::unique_ptr<Simulator>> pop_sims_;
  /// Per-node packet identity streams (sharded mode only): uid counter and
  /// payload-tag rng, consumed exclusively by the owning PoP's worker.
  struct NodeIdentity {
    util::Rng rng;
    std::uint64_t next_uid;
  };
  std::vector<NodeIdentity> identities_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<bool> node_is_router_;
  std::vector<Adjacency> adjacencies_;
  /// Duplex links that are administratively down (absent == up).
  std::map<std::uint64_t, bool> link_admin_down_;
  std::vector<LinkStatusHook> link_hooks_;
  std::vector<NodeStatusHook> node_hooks_;
  std::uint64_t next_uid_ = 1;
};

}  // namespace fatih::sim

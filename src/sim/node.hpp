// Nodes (routers and hosts), interfaces, links and packet taps.
//
// A Node owns output Interfaces; each interface bundles an output queue
// with a simplex link (bandwidth, propagation delay) to a peer node.
// Routers forward hop-by-hop from a forwarding table; a ForwardFilter hook
// lets the attack library make a compromised router drop / modify /
// misroute / delay traffic (dissertation §2.2.1 threat model). Packet taps
// are the "Traffic Summary Generator" attachment points (Fig. 5.5): the
// validation and detection layers observe traffic exclusively through
// them, exactly as a monitoring module sitting on the forwarding path
// would.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/packet.hpp"
#include "sim/queue.hpp"
#include "sim/simulator.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace fatih::sim {

class Node;
class Router;
class Network;

/// Ground-truth classification of a packet drop. Detection protocols never
/// see this; it exists so tests and benches can score detectors.
enum class DropReason {
  kCongestion,  ///< queue overflow (drop-tail full)
  kRedEarly,    ///< RED probabilistic early drop
  kMalicious,   ///< dropped by an adversary filter
  kTtlExpired,
  kNoRoute,
  kLinkFault,   ///< lost on the wire by an injected link fault
  kLinkDown,    ///< link administratively / physically down (churn)
  kNodeDown,    ///< delivered to or forwarded by a crashed node
};

/// Simplex link properties.
struct LinkParams {
  double bandwidth_bps = 1e8;                        ///< bits per second
  util::Duration delay = util::Duration::millis(1);  ///< propagation delay

  /// Serialization time of `bytes` on this link.
  [[nodiscard]] util::Duration tx_time(std::uint32_t bytes) const {
    return util::Duration::from_seconds(static_cast<double>(bytes) * 8.0 / bandwidth_bps);
  }
};

/// An output interface: queue + transmitter + simplex link to `peer`.
/// What a link fault injector does to a packet that finished serializing:
/// lose it on the wire, or deliver it `extra_delay` late.
struct LinkFault {
  bool drop = false;
  util::Duration extra_delay{};
};

class Interface {
 public:
  using EnqueueTap = std::function<void(const Packet&, util::SimTime)>;
  using DropTap = std::function<void(const Packet&, util::SimTime, DropReason)>;
  using TransmitTap = std::function<void(const Packet&, util::SimTime)>;
  /// Consulted once per transmitted packet; models a faulty/lossy link
  /// (the control-plane fault injection the reliable transport is built
  /// to survive). Null = perfect link.
  using FaultInjector = std::function<LinkFault(const Packet&, util::SimTime)>;

  Interface(Simulator& sim, Node& owner, std::size_t index, util::NodeId peer, LinkParams link,
            std::unique_ptr<OutputQueue> queue);

  Interface(const Interface&) = delete;
  Interface& operator=(const Interface&) = delete;

  /// Offers a packet to the queue; starts the transmitter if idle.
  /// Returns the queue's verdict; drops fire the drop taps. When the
  /// transmitter is idle and the queue reports pass_through(), the packet
  /// skips the queue entirely (same verdict, same observable effects).
  EnqueueResult send(const Packet& p);
  /// Move-through overload: on the pass-through fast path the packet goes
  /// straight into the serialization event without a copy.
  EnqueueResult send(Packet&& p);

  [[nodiscard]] util::NodeId peer() const { return peer_; }
  [[nodiscard]] std::size_t index() const { return index_; }
  [[nodiscard]] const LinkParams& link() const { return link_; }
  [[nodiscard]] const OutputQueue& queue() const { return *queue_; }
  [[nodiscard]] Node& owner() { return owner_; }

  /// Fraction of the byte limit currently occupied, in [0, 1].
  [[nodiscard]] double fill_fraction() const;

  /// Post-admission queue depth in bytes (including the packet itself)
  /// seen by the most recently accepted packet. Enqueue taps must read
  /// this instead of queue().byte_length(): the pass-through fast path
  /// hands an accepted packet straight to the transmitter, so the queue
  /// itself never holds it.
  [[nodiscard]] std::size_t last_admit_depth_bytes() const { return last_admit_depth_bytes_; }

  /// Observers. Enqueue fires after a packet is accepted into the queue;
  /// transmit fires when serialization onto the wire begins.
  void add_enqueue_tap(EnqueueTap tap) { enqueue_taps_.push_back(std::move(tap)); }
  void add_drop_tap(DropTap tap) { drop_taps_.push_back(std::move(tap)); }
  void add_transmit_tap(TransmitTap tap) { transmit_taps_.push_back(std::move(tap)); }

  /// Installs (or replaces) the link fault injector for this simplex
  /// direction. Dropped packets fire the drop taps with kLinkFault.
  void set_fault_injector(FaultInjector f) { fault_injector_ = std::move(f); }

  /// Used by Node::deliver_to_peer; set once during Network wiring.
  void set_peer_node(Node* peer_node) { peer_node_ = peer_node; }

  /// Marks this interface as PoP-crossing (sharded engine): packets that
  /// finish serializing are parked in the owner simulator's ShardLane
  /// instead of rearming a propagation event, and arrive on the peer's
  /// simulator via complete_propagation at the window barrier.
  void set_remote(bool remote) { remote_ = remote; }
  [[nodiscard]] bool remote() const { return remote_; }

  /// Second transmit stage for lane-delivered packets: runs on the *peer*
  /// PoP's simulator, checks the captured down-epoch, and hands the packet
  /// to the peer node. Mirrors TransmitEvent's arrival stage exactly.
  void complete_propagation(Packet&& p, std::uint64_t epoch);

  /// Ground-truth drop notification used by Router for non-queue drops.
  void notify_drop(const Packet& p, DropReason reason);

  /// Brings the simplex link up or down. Taking it down flushes the queue
  /// (drops fire the taps with kLinkDown) and loses any packet currently
  /// serializing or propagating; bringing it back up restarts the
  /// transmitter. Driven by Network::set_link_up / crash_router.
  void set_up(bool up);
  [[nodiscard]] bool up() const { return up_; }

 private:
  /// The two-stage serialization/propagation event (defined in node.cpp).
  /// A named functor so start_transmit can construct it in place inside
  /// the event record via schedule_emplace_in — a lambda would be built on
  /// the stack and moved in, a Packet-sized memcpy per transmission.
  struct TransmitEvent;

  EnqueueResult send_slow(const Packet& p);
  void note_pass_through(const Packet& p);
  void try_transmit();
  void start_transmit(Packet p);

  Simulator& sim_;
  Node& owner_;
  std::size_t index_;
  util::NodeId peer_;
  LinkParams link_;
  std::unique_ptr<OutputQueue> queue_;
  Node* peer_node_ = nullptr;
  /// Mirror of queue_->packet_count(), maintained across enqueue/dequeue
  /// verdicts so the (dominant) empty-queue case in try_transmit skips the
  /// virtual dequeue entirely. Safe because an empty-queue dequeue is a
  /// stateless no-op for every queue type (RED marks idle only on the
  /// dequeue that empties the queue).
  std::size_t queued_packets_ = 0;
  std::size_t last_admit_depth_bytes_ = 0;
  /// One-entry tx_time memo (pure function of size for a fixed link).
  std::uint32_t tx_memo_bytes_ = 0xFFFFFFFFu;
  util::Duration tx_memo_{};
  bool busy_ = false;
  bool up_ = true;
  bool remote_ = false;  ///< PoP-crossing (sharded engine lane handoff)
  /// Incremented every time the link goes down; serialization/propagation
  /// events capture the epoch at schedule time and discard themselves if
  /// the link failed underneath them.
  std::uint64_t down_epoch_ = 0;

  std::vector<EnqueueTap> enqueue_taps_;
  std::vector<DropTap> drop_taps_;
  std::vector<TransmitTap> transmit_taps_;
  FaultInjector fault_injector_;
};

/// What a forward filter (attack hook) tells the router to do with a
/// packet it is about to forward.
struct ForwardDecision {
  enum class Action { kForward, kDrop };
  Action action = Action::kForward;
  /// Replacement packet when modifying (payload_tag / header tampering).
  std::optional<Packet> replacement;
  /// Output interface override for misrouting.
  std::optional<std::size_t> iface_override;
  /// Extra queueing delay the adversary inserts before enqueue.
  util::Duration extra_delay{};

  static ForwardDecision forward() { return {}; }
  static ForwardDecision drop() {
    ForwardDecision d;
    d.action = Action::kDrop;
    return d;
  }
};

/// Attack hook installed on a compromised router. `prev` is the neighbor
/// the packet arrived from (== the router itself for locally originated
/// packets); `out` is the interface the forwarding table chose.
class ForwardFilter {
 public:
  virtual ~ForwardFilter() = default;
  virtual ForwardDecision on_forward(const Packet& p, util::NodeId prev, const Interface& out,
                                     Router& router) = 0;
};

/// Base class for routers and hosts.
class Node {
 public:
  /// Handler for packets addressed to this node (data plane).
  using LocalHandler = std::function<void(const Packet&, util::NodeId prev, util::SimTime)>;
  /// Handler for control-plane payloads addressed to this node; each
  /// subsystem filters on ControlPayload::kind().
  using ControlSink = std::function<void(const Packet&, util::NodeId prev, util::SimTime)>;
  /// Observer of every packet arriving at this node (before forwarding).
  using ReceiveTap = std::function<void(const Packet&, util::NodeId prev, util::SimTime)>;

  Node(Simulator& sim, util::NodeId id, std::string name);
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] util::NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Simulator& sim() { return sim_; }

  Interface& add_interface(util::NodeId peer, LinkParams link, std::unique_ptr<OutputQueue> q);
  [[nodiscard]] std::size_t interface_count() const { return interfaces_.size(); }
  [[nodiscard]] Interface& interface(std::size_t i) { return *interfaces_.at(i); }
  [[nodiscard]] const Interface& interface(std::size_t i) const { return *interfaces_.at(i); }
  /// Interface whose link points at `peer`, or nullptr.
  [[nodiscard]] Interface* interface_to(util::NodeId peer);

  void add_local_handler(LocalHandler h) { local_handlers_.push_back(std::move(h)); }
  void add_control_sink(ControlSink s) { control_sinks_.push_back(std::move(s)); }
  void add_receive_tap(ReceiveTap t) { receive_taps_.push_back(std::move(t)); }

  /// Called by the far interface when a packet finishes propagating.
  /// By value so the packet can be moved hop-to-hop: the forwarding chain
  /// (propagation → receive → processing-delay event → do_forward) hands
  /// one Packet along instead of copying at each stage (each copy bumps
  /// two shared_ptr refcounts).
  virtual void receive(Packet p, util::NodeId prev) = 0;

  /// Crash / restart state. A down node drops everything it receives and
  /// originates nothing. Driven by Network::crash_router / restart_router.
  void set_up(bool up) { up_ = up; }
  [[nodiscard]] bool up() const { return up_; }

  /// Barrier replay of a control delivery the sharded engine deferred:
  /// fires the control sinks with the recorded delivery time. Only the
  /// ShardEngine calls this, in canonical (time, PoP, emission) order.
  void deliver_control_direct(const Packet& p, util::NodeId prev, util::SimTime at) {
    for (const auto& sink : control_sinks_) sink(p, prev, at);
  }

 protected:
  void fire_receive_taps(const Packet& p, util::NodeId prev);
  void deliver_locally(const Packet& p, util::NodeId prev);

  Simulator& sim_;
  util::NodeId id_;
  std::string name_;
  std::vector<std::unique_ptr<Interface>> interfaces_;
  std::vector<LocalHandler> local_handlers_;
  std::vector<ControlSink> control_sinks_;
  std::vector<ReceiveTap> receive_taps_;
  bool up_ = true;
};

/// A router: hop-by-hop forwarder with (prev, dst)-keyed policy routes,
/// processing delay with bounded jitter, and an optional adversary filter.
class Router final : public Node {
 public:
  using ForwardTap =
      std::function<void(const Packet&, util::NodeId prev, std::size_t out_iface, util::SimTime)>;
  using DropTap = std::function<void(const Packet&, util::SimTime, DropReason)>;

  Router(Simulator& sim, util::NodeId id, std::string name, std::uint64_t jitter_seed);

  /// Installs the default route for `dst` (any previous hop).
  void set_route(util::NodeId dst, std::size_t out_iface);
  /// Installs a policy route used only for packets arriving from `prev`
  /// (the Fatih response mechanism, dissertation §5.3.1 "policy based
  /// routing ... combination of the source and destination addresses").
  void set_policy_route(util::NodeId prev, util::NodeId dst, std::size_t out_iface);
  /// Installs an explicit drop for (prev, dst): no compliant route exists,
  /// and falling back to the default route is not allowed.
  void set_policy_drop(util::NodeId prev, util::NodeId dst);
  /// Removes every route. `destinations` sizes the default table for that
  /// many destination ids up front, so installing a whole table does not
  /// regrow it.
  void clear_routes(std::size_t destinations = 0);

  /// Looks up the output interface for (prev, dst); policy routes win.
  [[nodiscard]] std::optional<std::size_t> lookup(util::NodeId prev, util::NodeId dst) const;

  /// Fixed part of per-packet forwarding latency.
  void set_processing_delay(util::Duration base, util::Duration max_jitter);
  [[nodiscard]] util::Duration base_processing_delay() const { return proc_base_; }

  /// Installs / removes the adversary hook.
  void set_forward_filter(std::shared_ptr<ForwardFilter> f) { filter_ = std::move(f); }
  [[nodiscard]] const std::shared_ptr<ForwardFilter>& forward_filter() const { return filter_; }
  [[nodiscard]] bool compromised() const { return filter_ != nullptr; }

  /// Sends a packet originating at this node (local agent or control
  /// plane). Skips the processing delay; goes straight to forwarding.
  void originate(const Packet& p);
  /// Move overload: the packet is handed down the forwarding chain
  /// without a copy.
  void originate(Packet&& p);

  /// Forwarding observers (used by summary generators and ground truth).
  void add_forward_tap(ForwardTap t) { forward_taps_.push_back(std::move(t)); }
  void add_drop_tap(DropTap t) { drop_taps_.push_back(std::move(t)); }

  void receive(Packet p, util::NodeId prev) override;

  /// Ground-truth counters (tests/benches only).
  [[nodiscard]] std::uint64_t malicious_drops() const { return malicious_drops_; }

 private:
  friend class Interface;
  /// Processing-delay event; a named functor for the same in-place
  /// construction reason as Interface::TransmitEvent.
  struct ProcessEvent;
  void do_forward(Packet p, util::NodeId prev);
  void notify_router_drop(const Packet& p, DropReason reason);

  static std::uint64_t key(util::NodeId prev, util::NodeId dst) {
    return (static_cast<std::uint64_t>(prev) << 32) | dst;
  }

  static constexpr std::size_t kDropRouteSentinel = static_cast<std::size_t>(-1);
  static constexpr std::uint32_t kNoRoute = static_cast<std::uint32_t>(-1);

  // The forwarding table is indexed by destination id (ids are dense), one
  // output interface or kNoRoute per entry, so a hop's lookup is a bounds
  // check and a load. Policy routes are few and installed only by the
  // response mechanism; they stay a sorted flat map, so any walk over them
  // is in key order (fatih-lint: no-unordered-iteration keeps it that way).
  std::vector<std::uint32_t> routes_;
  util::FlatMap<std::uint64_t, std::size_t> policy_routes_;
  util::Duration proc_base_ = util::Duration::micros(20);
  util::Duration proc_jitter_{};
  util::Rng rng_;
  std::shared_ptr<ForwardFilter> filter_;
  std::vector<ForwardTap> forward_taps_;
  std::vector<DropTap> drop_taps_;
  std::uint64_t malicious_drops_ = 0;
};

/// An end host: single-homed, never forwards; everything non-local goes to
/// the gateway interface 0.
class Host final : public Node {
 public:
  Host(Simulator& sim, util::NodeId id, std::string name);

  /// Sends a packet from the local stack toward its destination.
  void send(const Packet& p);
  /// Move overload: hands the packet to the gateway without a copy.
  void send(Packet&& p);

  void receive(Packet p, util::NodeId prev) override;
};

}  // namespace fatih::sim

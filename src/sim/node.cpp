#include "sim/node.hpp"

#include <cassert>

#include "sim/shard.hpp"
#include "util/log.hpp"

namespace fatih::sim {

namespace {

/// DropReason -> TraceCode, exhaustively (the kDrop block mirrors the enum,
/// but the switch keeps the mapping honest if either side is reordered).
[[maybe_unused]] obs::TraceCode drop_code(DropReason reason) {
  switch (reason) {
    case DropReason::kCongestion: return obs::TraceCode::kDropCongestion;
    case DropReason::kRedEarly: return obs::TraceCode::kDropRedEarly;
    case DropReason::kMalicious: return obs::TraceCode::kDropMalicious;
    case DropReason::kTtlExpired: return obs::TraceCode::kDropTtlExpired;
    case DropReason::kNoRoute: return obs::TraceCode::kDropNoRoute;
    case DropReason::kLinkFault: return obs::TraceCode::kDropLinkFault;
    case DropReason::kLinkDown: return obs::TraceCode::kDropLinkDown;
    case DropReason::kNodeDown: return obs::TraceCode::kDropNodeDown;
  }
  return obs::TraceCode::kNone;
}

}  // namespace

// ---------------------------------------------------------------- Interface

Interface::Interface(Simulator& sim, Node& owner, std::size_t index, util::NodeId peer,
                     LinkParams link, std::unique_ptr<OutputQueue> queue)
    : sim_(sim),
      owner_(owner),
      index_(index),
      peer_(peer),
      link_(link),
      queue_(std::move(queue)) {
  assert(queue_ != nullptr);
}

double Interface::fill_fraction() const {
  const auto limit = queue_->byte_limit();
  if (limit == 0) return 0.0;
  return static_cast<double>(queue_->byte_length()) / static_cast<double>(limit);
}

EnqueueResult Interface::send(const Packet& p) {
  if (!up_) {
    notify_drop(p, DropReason::kLinkDown);
    return EnqueueResult::kDroppedLinkDown;
  }
  if (!busy_ && queue_->pass_through(p, sim_.now())) {
    note_pass_through(p);
    start_transmit(p);
    return EnqueueResult::kAccepted;
  }
  return send_slow(p);
}

EnqueueResult Interface::send(Packet&& p) {
  if (!up_) {
    notify_drop(p, DropReason::kLinkDown);
    return EnqueueResult::kDroppedLinkDown;
  }
  if (!busy_ && queue_->pass_through(p, sim_.now())) {
    note_pass_through(p);
    start_transmit(std::move(p));
    return EnqueueResult::kAccepted;
  }
  return send_slow(p);
}

/// Observable effects of an accepted pass-through, identical to what
/// enqueue-then-dequeue would have produced: pass_through() guarantees the
/// queue is empty, so the post-enqueue depth is exactly p.size_bytes.
void Interface::note_pass_through(const Packet& p) {
  last_admit_depth_bytes_ = p.size_bytes;
  [[maybe_unused]] const auto limit = queue_->byte_limit();
  [[maybe_unused]] const double fill =
      limit == 0 ? 0.0 : static_cast<double>(p.size_bytes) / static_cast<double>(limit);
  FATIH_TRACE_EMIT(sim_.trace(),
                   queue_depth(sim_.now(), owner_.id(), peer_, p.size_bytes, fill));
  for (const auto& tap : enqueue_taps_) tap(p, sim_.now());
}

EnqueueResult Interface::send_slow(const Packet& p) {
  const auto result = queue_->enqueue(p, sim_.now());
  switch (result) {
    case EnqueueResult::kAccepted: {
      ++queued_packets_;
      last_admit_depth_bytes_ = queue_->byte_length();
      FATIH_TRACE_EMIT(sim_.trace(), queue_depth(sim_.now(), owner_.id(), peer_,
                                                 queue_->byte_length(), fill_fraction()));
      for (const auto& tap : enqueue_taps_) tap(p, sim_.now());
      try_transmit();
      break;
    }
    case EnqueueResult::kDroppedFull:
      notify_drop(p, DropReason::kCongestion);
      break;
    case EnqueueResult::kDroppedRedEarly:
      notify_drop(p, DropReason::kRedEarly);
      break;
    case EnqueueResult::kDroppedLinkDown:
      notify_drop(p, DropReason::kLinkDown);
      break;
  }
  return result;
}

void Interface::set_up(bool up) {
  if (up_ == up) return;
  up_ = up;
  if (!up_) {
    // Invalidate the in-flight serialization/propagation events and lose
    // everything waiting in the queue: a cut link keeps nothing.
    ++down_epoch_;
    while (auto popped = queue_->dequeue(sim_.now())) {
      notify_drop(*popped, DropReason::kLinkDown);
    }
    queued_packets_ = 0;
  } else if (!busy_) {
    try_transmit();
  }
}

void Interface::notify_drop(const Packet& p, DropReason reason) {
  FATIH_TRACE_EMIT(sim_.trace(),
                   drop(sim_.now(), drop_code(reason), owner_.id(), peer_, p.uid));
  for (const auto& tap : drop_taps_) tap(p, sim_.now(), reason);
}

void Interface::try_transmit() {
  if (busy_ || !up_ || queued_packets_ == 0) return;
  auto popped = queue_->dequeue(sim_.now());
  if (!popped) return;
  --queued_packets_;
  start_transmit(*std::move(popped));
}

// One two-stage event carries the packet across the wire: it fires at
// end of serialization (transmitter frees up, packet starts propagating),
// rearms itself in place for the propagation delay, and fires again at
// arrival — the packet never leaves the event record between the stages.
// Dispatch order and times are identical to scheduling a separate
// propagation event; only the slot churn (a Packet-sized callable move
// per hop) is gone. The event carries the down-epoch observed at schedule
// time: if the link fails underneath it, the packet is lost instead of
// delivered (interfaces are never destroyed before the simulator, so
// holding `self` is safe).
struct Interface::TransmitEvent {
  Interface* self;
  std::uint64_t epoch;
  Packet p;
  bool propagating = false;

  void operator()() {
    if (propagating) {  // stage 2: arrival at the peer
      if (epoch != self->down_epoch_) {
        self->notify_drop(p, DropReason::kLinkDown);
        return;
      }
      if (self->peer_node_ != nullptr) self->peer_node_->receive(std::move(p), self->owner_.id());
      return;
    }
    self->busy_ = false;  // stage 1: end of serialization
    if (epoch != self->down_epoch_) {
      self->notify_drop(p, DropReason::kLinkDown);
      self->try_transmit();
      return;
    }
    LinkFault fault;
    if (self->fault_injector_) fault = self->fault_injector_(p, self->sim_.now());
    if (fault.drop) {
      self->notify_drop(p, DropReason::kLinkFault);
    } else if (self->remote_ && self->sim_.shard_lane() != nullptr) {
      // PoP-crossing link under the sharded engine: park the packet in
      // this PoP's lane with its arrival time. The propagation delay is at
      // least the conservative lookahead, so the arrival lands beyond the
      // current window and the barrier install is always a future
      // schedule on the peer PoP's simulator.
      self->sim_.shard_lane()->defer_data(
          self->sim_.now() + self->link_.delay + fault.extra_delay, self, epoch, std::move(p));
    } else {
      propagating = true;
      self->sim_.rearm_current(self->link_.delay + fault.extra_delay);
    }
    self->try_transmit();
  }
};

void Interface::complete_propagation(Packet&& p, std::uint64_t epoch) {
  // Same arrival semantics as TransmitEvent stage 2; runs on the peer
  // PoP's simulator via the barrier-installed delivery event.
  if (epoch != down_epoch_) {
    notify_drop(p, DropReason::kLinkDown);
    return;
  }
  if (peer_node_ != nullptr) peer_node_->receive(std::move(p), owner_.id());
}

void Interface::start_transmit(Packet p) {
  busy_ = true;
  for (const auto& tap : transmit_taps_) tap(p, sim_.now());
  // Serialization time for a given size is a pure function of the link;
  // macro workloads send one packet size almost exclusively, so a
  // one-entry memo skips the double math on the repeat.
  if (p.size_bytes != tx_memo_bytes_) {
    tx_memo_bytes_ = p.size_bytes;
    tx_memo_ = link_.tx_time(p.size_bytes);
  }
  sim_.schedule_emplace_in<TransmitEvent>(tx_memo_, this, down_epoch_, std::move(p));
}

// --------------------------------------------------------------------- Node

Node::Node(Simulator& sim, util::NodeId id, std::string name)
    : sim_(sim), id_(id), name_(std::move(name)) {}

Interface& Node::add_interface(util::NodeId peer, LinkParams link,
                               std::unique_ptr<OutputQueue> q) {
  interfaces_.push_back(
      std::make_unique<Interface>(sim_, *this, interfaces_.size(), peer, link, std::move(q)));
  return *interfaces_.back();
}

Interface* Node::interface_to(util::NodeId peer) {
  for (auto& iface : interfaces_) {
    if (iface->peer() == peer) return iface.get();
  }
  return nullptr;
}

void Node::fire_receive_taps(const Packet& p, util::NodeId prev) {
  for (const auto& tap : receive_taps_) tap(p, prev, sim_.now());
}

void Node::deliver_locally(const Packet& p, util::NodeId prev) {
  if (p.is_control()) {
    // Sharded engine: control sinks mutate detection-engine state that is
    // shared across PoPs, so the delivery is deferred to this PoP's lane
    // and replayed serially at the window barrier in canonical (time,
    // PoP, emission) order. Active at every worker count — including one —
    // so the replay order never depends on parallelism.
    if (ShardLane* lane = sim_.shard_lane()) {
      lane->defer_control(sim_.now(), this, prev, p);
      return;
    }
    for (const auto& sink : control_sinks_) sink(p, prev, sim_.now());
    return;
  }
  for (const auto& handler : local_handlers_) handler(p, prev, sim_.now());
}

// ------------------------------------------------------------------- Router

Router::Router(Simulator& sim, util::NodeId id, std::string name, std::uint64_t jitter_seed)
    : Node(sim, id, std::move(name)), rng_(jitter_seed) {}

void Router::set_route(util::NodeId dst, std::size_t out_iface) {
  assert(out_iface < interfaces_.size() && dst != util::kInvalidNode);
  if (dst >= routes_.size()) routes_.resize(std::size_t{dst} + 1, kNoRoute);
  routes_[dst] = static_cast<std::uint32_t>(out_iface);
}

void Router::set_policy_route(util::NodeId prev, util::NodeId dst, std::size_t out_iface) {
  assert(out_iface < interfaces_.size());
  policy_routes_[key(prev, dst)] = out_iface;
}

void Router::set_policy_drop(util::NodeId prev, util::NodeId dst) {
  policy_routes_[key(prev, dst)] = kDropRouteSentinel;
}

void Router::clear_routes(std::size_t destinations) {
  routes_.assign(destinations, kNoRoute);
  policy_routes_.clear();
}

std::optional<std::size_t> Router::lookup(util::NodeId prev, util::NodeId dst) const {
  if (auto it = policy_routes_.find(key(prev, dst)); it != policy_routes_.end()) {
    if (it->second == kDropRouteSentinel) return std::nullopt;
    return it->second;
  }
  if (dst < routes_.size() && routes_[dst] != kNoRoute) return routes_[dst];
  return std::nullopt;
}

void Router::set_processing_delay(util::Duration base, util::Duration max_jitter) {
  proc_base_ = base;
  proc_jitter_ = max_jitter;
}

void Router::originate(const Packet& p) {
  if (!up_) return;
  do_forward(p, id_);
}

void Router::originate(Packet&& p) {
  if (!up_) return;
  do_forward(std::move(p), id_);
}

struct Router::ProcessEvent {
  Router* self;
  Packet p;
  util::NodeId prev;

  void operator()() { self->do_forward(std::move(p), prev); }
};

void Router::receive(Packet p, util::NodeId prev) {
  if (!up_) {
    // A crashed router is a black hole: no taps, no forwarding — only the
    // ground-truth drop record.
    notify_router_drop(p, DropReason::kNodeDown);
    return;
  }
  fire_receive_taps(p, prev);
  if (p.hdr.dst == id_) {
    deliver_locally(p, prev);
    return;
  }
  // Forward after the (jittered) processing delay; the jitter is the
  // short-term scheduling noise that makes queue prediction statistical
  // (dissertation §6.2.1).
  util::Duration delay = proc_base_;
  if (proc_jitter_ > util::Duration{}) {
    delay += util::Duration::nanos(rng_.uniform_int(0, proc_jitter_.count_nanos()));
  }
  sim_.schedule_emplace_in<ProcessEvent>(delay, this, std::move(p), prev);
}

void Router::do_forward(Packet p, util::NodeId prev) {
  if (!up_) {
    // Crash landed between receive and the processing-delay event.
    notify_router_drop(p, DropReason::kNodeDown);
    return;
  }
  if (p.hdr.ttl == 0 || --p.hdr.ttl == 0) {
    notify_router_drop(p, DropReason::kTtlExpired);
    return;
  }
  std::size_t out_iface;
  if (p.source_route != nullptr) {
    // Strict source routing: follow the embedded node sequence.
    const auto& route = *p.source_route;
    if (p.route_hop + 1U >= route.size() || route[p.route_hop] != id_) {
      notify_router_drop(p, DropReason::kNoRoute);
      return;
    }
    ++p.route_hop;
    auto* iface = interface_to(route[p.route_hop]);
    if (iface == nullptr) {
      notify_router_drop(p, DropReason::kNoRoute);
      return;
    }
    out_iface = iface->index();
  } else {
    const auto out = lookup(prev, p.hdr.dst);
    if (!out) {
      notify_router_drop(p, DropReason::kNoRoute);
      return;
    }
    out_iface = *out;
  }

  if (filter_ != nullptr) {
    auto decision = filter_->on_forward(p, prev, *interfaces_[out_iface], *this);
    if (decision.action == ForwardDecision::Action::kDrop) {
      ++malicious_drops_;
      notify_router_drop(p, DropReason::kMalicious);
      return;
    }
    if (decision.replacement) p = *std::move(decision.replacement);
    if (decision.iface_override) out_iface = *decision.iface_override;
    if (decision.extra_delay > util::Duration{}) {
      const auto d = decision.extra_delay;
      sim_.schedule_in(d, [this, p = std::move(p), prev, out_iface]() mutable {
        for (const auto& tap : forward_taps_) tap(p, prev, out_iface, sim_.now());
        interfaces_[out_iface]->send(std::move(p));
      });
      return;
    }
  }

  for (const auto& tap : forward_taps_) tap(p, prev, out_iface, sim_.now());
  interfaces_[out_iface]->send(std::move(p));
}

void Router::notify_router_drop(const Packet& p, DropReason reason) {
  FATIH_TRACE_EMIT(sim_.trace(),
                   drop(sim_.now(), drop_code(reason), id_, util::kInvalidNode, p.uid));
  for (const auto& tap : drop_taps_) tap(p, sim_.now(), reason);
}

// --------------------------------------------------------------------- Host

Host::Host(Simulator& sim, util::NodeId id, std::string name) : Node(sim, id, std::move(name)) {}

void Host::send(const Packet& p) {
  if (!up_) return;
  if (p.hdr.dst == id_) {
    deliver_locally(p, id_);
    return;
  }
  assert(!interfaces_.empty());
  interfaces_.front()->send(p);
}

void Host::send(Packet&& p) {
  if (!up_) return;
  if (p.hdr.dst == id_) {
    deliver_locally(p, id_);
    return;
  }
  assert(!interfaces_.empty());
  interfaces_.front()->send(std::move(p));
}

void Host::receive(Packet p, util::NodeId prev) {
  if (!up_) return;
  fire_receive_taps(p, prev);
  if (p.hdr.dst == id_) {
    deliver_locally(p, prev);
  }
  // Hosts never forward transit traffic.
}

}  // namespace fatih::sim

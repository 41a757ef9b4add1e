#include "detection/flood.hpp"

#include "detection/reliable.hpp"

namespace fatih::detection {

FloodService::FloodService(sim::Network& net, std::uint16_t kind) : net_(net), kind_(kind) {
  seen_.resize(net_.node_count());
  for (util::NodeId n = 0; n < net_.node_count(); ++n) {
    if (!net_.is_router(n)) continue;
    net_.node(n).add_control_sink(
        [this, n](const sim::Packet& p, util::NodeId prev, util::SimTime) {
          on_control(n, p, prev);
        });
  }
}

void FloodService::originate(util::NodeId from, std::shared_ptr<const sim::ControlPayload> payload,
                             std::uint32_t wire_bytes) {
  const std::uint64_t key = key_fn_(*payload);
  if (!seen_[from].insert(key).second) return;
  if (delivery_fn_) delivery_fn_(from, *payload, net_.sim().now());
  forward_copies(from, std::move(payload), wire_bytes, util::kInvalidNode);
}

void FloodService::on_control(util::NodeId at, const sim::Packet& p, util::NodeId prev) {
  if (p.control == nullptr || p.control->kind() != kind_) return;
  // Hop copies travel neighbour-direct. A routed copy's `prev` is only the
  // relay, so judging it would blame an honest router for its source.
  if (p.hdr.src != prev) return;
  if (validate_fn_ && !validate_fn_(at, *p.control)) {
    if (invalid_fn_) invalid_fn_(at, prev, *p.control, net_.sim().now());
    return;
  }
  const std::uint64_t key = key_fn_(*p.control);
  if (!seen_[at].insert(key).second) return;  // duplicate
  if (delivery_fn_) delivery_fn_(at, *p.control, net_.sim().now());
  if (suppressed_.contains(at)) return;  // protocol-faulty: won't re-flood
  forward_copies(at, std::shared_ptr<const sim::ControlPayload>(p.control), p.size_bytes, prev);
}

void FloodService::forward_copies(util::NodeId at,
                                  std::shared_ptr<const sim::ControlPayload> payload,
                                  std::uint32_t bytes, util::NodeId except_peer) {
  auto& node = net_.node(at);
  for (std::size_t i = 0; i < node.interface_count(); ++i) {
    auto& iface = node.interface(i);
    if (iface.peer() == except_peer) continue;
    if (!net_.is_router(iface.peer())) continue;
    ++copies_sent_;
    bytes_sent_ += sim::kHeaderBytes + bytes;
    if (channel_ != nullptr) {
      channel_->send(at, iface.peer(), payload, bytes, ReliableChannel::Via::kDirect);
      continue;
    }
    sim::PacketHeader hdr;
    hdr.src = at;
    hdr.dst = iface.peer();
    hdr.proto = sim::Protocol::kControl;
    sim::Packet copy = net_.make_packet(hdr, bytes);
    copy.control = payload;
    iface.send(copy);
  }
}

}  // namespace fatih::detection

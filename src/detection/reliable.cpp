#include "detection/reliable.hpp"

#include <algorithm>
#include <cassert>

#include "crypto/mac.hpp"
#include "crypto/siphash.hpp"

namespace fatih::detection {

namespace {
/// Channel rng stream tag; combined with the network seed and the channel
/// kind so coexisting channels draw uncorrelated jitter. Deliberately NOT
/// forked from the network rng: constructing a channel must not perturb
/// the rng stream existing experiments consume.
constexpr std::uint64_t kChannelSeedTag = 0x52454C4943484E4CULL;  // "RELICHNL"
/// Multiplier applied to the RTO after each retransmission.
constexpr double kBackoff = 2.0;
/// Simulated wire size of an ack packet (payload only, header extra).
constexpr std::uint32_t kAckBytes = 48;
}  // namespace

std::uint64_t summary_dedup_key(util::NodeId reporter, const routing::PathSegment& segment,
                                std::int64_t round, std::uint16_t kind) {
  constexpr crypto::SipKey kKey{0x72656C6961626C65ULL, 0x6465647570206B31ULL};
  std::vector<std::byte> bytes;
  crypto::append_bytes(bytes, reporter);
  const auto count = static_cast<std::uint32_t>(segment.nodes().size());
  crypto::append_bytes(bytes, count);
  for (const util::NodeId n : segment.nodes()) crypto::append_bytes(bytes, n);
  crypto::append_bytes(bytes, round);
  crypto::append_bytes(bytes, kind);
  return crypto::siphash24(kKey, bytes.data(), bytes.size());
}

crypto::MacTag ack_tag(const crypto::KeyRegistry& keys, std::uint16_t acked_kind,
                       std::uint64_t msg_key, util::NodeId acker, util::NodeId addressee) {
  std::vector<std::byte> bytes;
  crypto::append_bytes(bytes, acked_kind);
  crypto::append_bytes(bytes, msg_key);
  crypto::append_bytes(bytes, acker);
  crypto::append_bytes(bytes, addressee);
  return crypto::compute_mac(keys.pairwise_key(acker, addressee), bytes);
}

ReliableChannel::ReliableChannel(sim::Network& net, const crypto::KeyRegistry& keys,
                                 std::uint16_t kind, ReliableConfig config)
    : net_(net), keys_(keys), kind_(kind), config_(config),
      rng_(net.seed() ^ kChannelSeedTag ^ kind) {
  seen_.resize(net_.node_count());
  for (util::NodeId n = 0; n < net_.node_count(); ++n) {
    net_.node(n).add_control_sink(
        [this, n](const sim::Packet& p, util::NodeId /*prev*/, util::SimTime) {
          if (p.control == nullptr) return;
          if (p.control->kind() == kind_) {
            on_message(n, p);
          } else if (p.control->kind() == kKindControlAck) {
            const auto& ack = static_cast<const ControlAckPayload&>(*p.control);
            if (ack.acked_kind == kind_) on_ack(n, ack);
          }
        });
  }
}

void ReliableChannel::send(util::NodeId from, util::NodeId to,
                           std::shared_ptr<const sim::ControlPayload> payload,
                           std::uint32_t wire_bytes, Via via) {
  assert(key_fn_ != nullptr);
  const PendingKey key{from, to, key_fn_(*payload)};
  auto [it, inserted] = pending_.try_emplace(key);
  if (!inserted) return;  // identical message already in flight
  Pending& p = it->second;
  p.payload = std::move(payload);
  p.wire_bytes = wire_bytes;
  p.via = via;
  p.rto = current_rto(from, to);
  ++stats_.messages;
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   exchange(net_.sim().now(), obs::TraceSource::kReliable,
                            obs::TraceCode::kExchangeSend, from, to, -1, std::get<2>(key)));
  transmit(key, p);
  arm_timer(key, p);
}

util::Duration ReliableChannel::current_rto(util::NodeId from, util::NodeId to) const {
  const auto it = rtt_.find(pair_key(from, to));
  if (it == rtt_.end() || !it->second.valid) return config_.initial_rto;
  const double rto_s = it->second.srtt_s + 4.0 * it->second.rttvar_s;
  return std::clamp(util::Duration::from_seconds(rto_s), config_.min_rto, config_.max_rto);
}

void ReliableChannel::transmit(const PendingKey& key, Pending& p) {
  ++p.attempts;
  p.last_sent = net_.sim().now();
  ++stats_.transmissions;
  stats_.payload_bytes += sim::kHeaderBytes + p.wire_bytes;
  emit(std::get<0>(key), std::get<1>(key), p.payload, p.wire_bytes, p.via);
}

void ReliableChannel::arm_timer(const PendingKey& key, Pending& p) {
  const double scale = 1.0 + config_.jitter * (2.0 * rng_.next_double() - 1.0);
  const auto delay = p.rto.scaled(scale);
  p.timer = net_.sim().schedule_in(delay, [this, key] { on_timeout(key); });
}

void ReliableChannel::on_timeout(const PendingKey& key) {
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;  // acked; stale timer
  Pending& p = it->second;
  if (p.attempts > config_.max_retries) {
    ++stats_.failures;
    FATIH_TRACE_EMIT(net_.sim().trace(),
                     exchange(net_.sim().now(), obs::TraceSource::kReliable,
                              obs::TraceCode::kExchangeFailed, std::get<0>(key),
                              std::get<1>(key), -1, std::get<2>(key)));
    auto payload = p.payload;
    pending_.erase(it);
    if (failure_fn_) {
      failure_fn_(std::get<0>(key), std::get<1>(key), *payload, net_.sim().now());
    }
    return;
  }
  p.retransmitted = true;
  ++stats_.retransmits;
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   exchange(net_.sim().now(), obs::TraceSource::kReliable,
                            obs::TraceCode::kExchangeRetransmit, std::get<0>(key),
                            std::get<1>(key), -1, p.attempts));
  p.rto = std::min(p.rto.scaled(kBackoff), config_.max_rto);
  transmit(key, p);
  arm_timer(key, p);
}

void ReliableChannel::on_message(util::NodeId at, const sim::Packet& p) {
  const std::uint64_t key = key_fn_(*p.control);
  // Ack every arriving copy (duplicates included): a lost ack otherwise
  // leaves the sender retransmitting an already-delivered message forever.
  auto ack = std::make_shared<ControlAckPayload>();
  ack->acked_kind = kind_;
  ack->msg_key = key;
  ack->acker = at;
  ack->tag = ack_tag(keys_, kind_, key, at, p.hdr.src);
  ++stats_.acks_sent;
  stats_.ack_bytes += sim::kHeaderBytes + kAckBytes;
  emit(at, p.hdr.src, std::move(ack), kAckBytes, Via::kRouted);
  if (!seen_[at].insert(key).second) {
    ++stats_.duplicates;
    return;
  }
  if (delivery_fn_) delivery_fn_(at, *p.control, net_.sim().now());
}

void ReliableChannel::on_ack(util::NodeId at, const ControlAckPayload& ack) {
  // Mandatory ack authentication: the tag must verify under the pairwise
  // key of the claimed acker and this node, so a spoofed ack (forged
  // acker, or a replayed tag spliced onto a different msg_key) can never
  // settle an exchange the forger was not a party to.
  if (ack.tag != ack_tag(keys_, kind_, ack.msg_key, ack.acker, at)) {
    ++stats_.acks_rejected;
    FATIH_TRACE_EMIT(net_.sim().trace(),
                     byzantine(net_.sim().now(), obs::TraceSource::kReliable,
                               obs::TraceCode::kControlRejected, at, ack.acker, -1,
                               ack.msg_key, "ack-bad-mac"));
    return;
  }
  const auto it = pending_.find({at, ack.acker, ack.msg_key});
  if (it == pending_.end()) return;  // duplicate or stale ack
  Pending& p = it->second;
  ++stats_.acks_received;
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   exchange(net_.sim().now(), obs::TraceSource::kReliable,
                            obs::TraceCode::kExchangeAck, at, ack.acker, -1, ack.msg_key));
  // Karn's rule: only first-transmission acks yield an unambiguous sample.
  if (!p.retransmitted) sample_rtt(at, ack.acker, net_.sim().now() - p.last_sent);
  net_.sim().cancel(p.timer);
  pending_.erase(it);
}

void ReliableChannel::emit(util::NodeId from, util::NodeId to,
                           std::shared_ptr<const sim::ControlPayload> payload,
                           std::uint32_t wire_bytes, Via via) {
  sim::PacketHeader hdr;
  hdr.src = from;
  hdr.dst = to;
  hdr.proto = sim::Protocol::kControl;
  sim::Packet pkt = net_.make_packet(hdr, wire_bytes);
  pkt.control = std::move(payload);
  sim::Node& node = net_.node(from);
  if (via == Via::kDirect) {
    auto* iface = node.interface_to(to);
    assert(iface != nullptr);
    iface->send(pkt);
    return;
  }
  // Routed: acks and end-to-end exchanges follow the tables; prefer the
  // adjacent interface when no route exists (flood acks between neighbors
  // in networks that never installed routes).
  if (net_.is_router(from)) {
    auto& router = net_.router(from);
    if (!router.lookup(from, to).has_value()) {
      if (auto* iface = router.interface_to(to); iface != nullptr) {
        iface->send(pkt);
        return;
      }
    }
    router.originate(pkt);
  } else {
    net_.host(from).send(pkt);
  }
}

void ReliableChannel::sample_rtt(util::NodeId from, util::NodeId to, util::Duration sample) {
  RttState& st = rtt_[pair_key(from, to)];
  const double s = sample.to_seconds();
  if (!st.valid) {
    st.valid = true;
    st.srtt_s = s;
    st.rttvar_s = s / 2.0;
    return;
  }
  const double err = s - st.srtt_s;
  st.srtt_s += err / 8.0;
  st.rttvar_s += (std::abs(err) - st.rttvar_s) / 4.0;
}

}  // namespace fatih::detection

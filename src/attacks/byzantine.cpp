#include "attacks/byzantine.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "crypto/mac.hpp"
#include "detection/evidence.hpp"

namespace fatih::attacks {

namespace {

/// The signed detection payload kinds an empty kind filter targets.
constexpr std::uint16_t kSignedKinds[] = {
    detection::kKindSegmentSummary,
    detection::kKindSummaryFlood,
    detection::kKindChiReport,
    detection::kKindAccusation,
};

bool kind_matches(const std::vector<std::uint16_t>& kinds, std::uint16_t kind) {
  if (kinds.empty()) {
    return std::find(std::begin(kSignedKinds), std::end(kSignedKinds), kind) !=
           std::end(kSignedKinds);
  }
  return std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
}

/// Flips one payload byte (or the tag, for an empty payload) so the
/// envelope's MAC no longer verifies.
void corrupt(crypto::SignedEnvelope& env) {
  if (env.payload.empty()) {
    env.tag ^= 1;
    return;
  }
  env.payload[env.payload.size() / 2] ^= std::byte{0x40};
}

/// Deep-copies a signed detection payload of type `Payload` and corrupts
/// the copy's envelope. The copy starts unjudged and unkeyed, so the
/// write comes before any guard or flood has seen it.
template <typename Payload>
std::shared_ptr<const sim::ControlPayload> corrupted_copy(const sim::ControlPayload& c) {
  auto out = std::make_shared<Payload>(static_cast<const Payload&>(c));
  assert(!out->cache.judged() && !out->cache.keyed());
  corrupt(out->envelope);
  return out;
}

/// corrupted_copy of a signed detection payload; null for kinds without a
/// signed envelope.
std::shared_ptr<const sim::ControlPayload> corrupted_clone(const sim::ControlPayload& c) {
  switch (c.kind()) {
    case detection::kKindSegmentSummary:
    case detection::kKindSummaryFlood:
      return corrupted_copy<detection::SegmentSummaryPayload>(c);
    case detection::kKindChiReport:
      return corrupted_copy<detection::ChiReportPayload>(c);
    case detection::kKindAccusation:
      return corrupted_copy<detection::AccusationPayload>(c);
    default:
      return nullptr;
  }
}

}  // namespace

// --------------------------------------------------------- ControlTamper

ControlTamperAttack::ControlTamperAttack(Config config)
    : config_(std::move(config)), rng_(config_.seed) {}

sim::ForwardDecision ControlTamperAttack::on_forward(const sim::Packet& p,
                                                     util::NodeId /*prev*/,
                                                     const sim::Interface& /*out*/,
                                                     sim::Router& router) {
  if (router.sim().now() < config_.active_from) return sim::ForwardDecision::forward();
  if (!p.is_control() || p.control == nullptr) return sim::ForwardDecision::forward();
  if (!kind_matches(config_.kinds, p.control->kind())) return sim::ForwardDecision::forward();
  if (!rng_.bernoulli(config_.fraction)) return sim::ForwardDecision::forward();
  auto clone = corrupted_clone(*p.control);
  if (clone == nullptr) return sim::ForwardDecision::forward();
  ++tampered_;
  sim::ForwardDecision d;
  sim::Packet tampered = p;
  tampered.control = std::move(clone);
  tampered.payload_tag ^= 0x9E3779B97F4A7C15ULL;  // different bytes on the wire
  d.replacement = std::move(tampered);
  return d;
}

// --------------------------------------------------- ForgedControlInjector

ForgedControlInjector::ForgedControlInjector(sim::Network& net, const crypto::KeyRegistry& keys,
                                             Config config)
    : net_(net), keys_(keys), config_(std::move(config)) {
  net_.sim().schedule_at(config_.start, [this] { fire(); });
}

void ForgedControlInjector::fire() {
  const std::int64_t round = config_.clock.round_of(net_.sim().now());
  std::shared_ptr<sim::ControlPayload> payload;
  std::vector<std::byte> bytes;
  std::uint32_t wire = 0;
  if (config_.kind == detection::kKindChiReport) {
    detection::ChiReport rep;
    rep.reporter = config_.victim;
    rep.queue_owner = config_.segment.empty() ? config_.victim : config_.segment.front();
    rep.queue_peer = config_.segment.empty() ? config_.dst : config_.segment.back();
    rep.round = round;
    bytes = rep.to_bytes();
    wire = rep.wire_bytes();
    auto p = std::make_shared<detection::ChiReportPayload>();
    p->report = std::move(rep);
    payload = std::move(p);
  } else {
    detection::SegmentSummary summary;
    summary.reporter = config_.victim;
    summary.segment = config_.segment;
    summary.round = round;
    bytes = summary.to_bytes();
    wire = summary.wire_bytes();
    auto p = std::make_shared<detection::SegmentSummaryPayload>();
    p->kind_tag = config_.kind;
    p->summary = std::move(summary);
    payload = std::move(p);
  }
  crypto::SignedEnvelope env;
  if (config_.sign_with_own_key) {
    // Verifies fine — but the signer contradicts the claimed reporter.
    env = crypto::sign(keys_, config_.at, std::move(bytes));
  } else {
    env.signer = config_.victim;
    env.payload = std::move(bytes);
    env.tag = 0xDEADC0DEDEADC0DEULL;  // fabricated; cannot verify
  }
  // Written before the first send, so no guard has judged the payload and
  // no flood has keyed it.
  if (auto* p = dynamic_cast<detection::SegmentSummaryPayload*>(payload.get())) {
    assert(!p->cache.judged() && !p->cache.keyed());
    p->envelope = std::move(env);
  } else if (auto* p = dynamic_cast<detection::ChiReportPayload*>(payload.get())) {
    assert(!p->cache.judged() && !p->cache.keyed());
    p->envelope = std::move(env);
  }

  sim::PacketHeader hdr;
  hdr.src = config_.at;
  hdr.proto = sim::Protocol::kControl;
  if (config_.dst != util::kInvalidNode) {
    hdr.dst = config_.dst;
    sim::Packet p = net_.make_packet(hdr, wire);
    p.control = payload;
    emit(p, config_.dst);
  } else {
    auto& node = net_.router(config_.at);
    for (std::size_t i = 0; i < node.interface_count(); ++i) {
      const util::NodeId peer = node.interface(i).peer();
      if (!net_.is_router(peer)) continue;
      hdr.dst = peer;
      sim::Packet p = net_.make_packet(hdr, wire);
      p.control = payload;
      emit(p, peer);
    }
  }
  ++injected_;

  if (--config_.shots > 0 && config_.period.count_nanos() > 0) {
    net_.sim().schedule_in(config_.period, [this] { fire(); });
  }
}

void ForgedControlInjector::emit(const sim::Packet& p, util::NodeId to) const {
  auto& node = net_.router(config_.at);
  // Prefer the direct interface (flood hop copies are neighbor-direct);
  // fall back to routed origination for distant targets.
  if (auto* iface = node.interface_to(to); iface != nullptr) {
    iface->send(p);
    return;
  }
  node.originate(p);
}

// ------------------------------------------------------- StaleReplayAttack

StaleReplayAttack::StaleReplayAttack(sim::Network& net, Config config)
    : net_(net), config_(std::move(config)) {
  net_.node(config_.at).add_receive_tap(
      [this](const sim::Packet& p, util::NodeId /*prev*/, util::SimTime now) {
        if (now < config_.active_from) return;
        if (!p.is_control() || p.control == nullptr) return;
        if (!kind_matches(config_.kinds, p.control->kind())) return;
        if (captured_ >= config_.max_captures) return;
        ++captured_;
        sim::Packet copy = p;
        net_.sim().schedule_at(now + config_.delay,
                               [this, copy = std::move(copy)] { replay(copy); });
      });
}

void StaleReplayAttack::replay(sim::Packet p) {
  auto& node = net_.router(config_.at);
  if (p.hdr.dst == config_.at) {
    // A hop copy addressed to the attacker (flooded kinds): re-emit the
    // captured bytes to every router neighbor as if freshly flooded.
    for (std::size_t i = 0; i < node.interface_count(); ++i) {
      const util::NodeId peer = node.interface(i).peer();
      if (!net_.is_router(peer)) continue;
      sim::PacketHeader hdr = p.hdr;
      hdr.src = config_.at;
      hdr.dst = peer;
      sim::Packet copy = net_.make_packet(hdr, p.size_bytes);
      copy.control = p.control;
      node.interface(i).send(copy);
      ++replayed_;
    }
    return;
  }
  // A routed exchange/report captured in transit: re-originate it toward
  // its original destination, original claimed source intact.
  sim::Packet copy = net_.make_packet(p.hdr, p.size_bytes);
  copy.control = p.control;
  node.originate(copy);
  ++replayed_;
}

// --------------------------------------------------- FalseAccusationAttack

FalseAccusationAttack::FalseAccusationAttack(sim::Network& net, const crypto::KeyRegistry& keys,
                                             detection::ConvictionEngine& conviction,
                                             Config config)
    : net_(net), keys_(keys), conviction_(conviction), config_(std::move(config)) {
  net_.sim().schedule_at(config_.start, [this] { fire(); });
}

void FalseAccusationAttack::fire() {
  const std::int64_t round = config_.clock.round_of(net_.sim().now());
  for (util::NodeId accuser : config_.accusers) {
    detection::Accusation acc;
    acc.accuser = accuser;
    acc.detector = config_.detector;
    acc.accused = routing::PathSegment{config_.victim};
    acc.round = round;
    acc.cause = "framed";
    if (config_.forge_evidence) {
      // A fabricated "equivocation proof": two envelopes under the
      // victim's name that the attacker cannot actually sign. The
      // evidence layer spots the invalid proof and convicts the accuser.
      for (std::byte b : {std::byte{0x01}, std::byte{0x02}}) {
        crypto::SignedEnvelope fake;
        fake.signer = config_.victim;
        fake.payload = {b, std::byte{0xBA}, std::byte{0xD0}};
        fake.tag = 0xFA4EFA4EFA4EFA4EULL;
        acc.evidence.push_back(std::move(fake));
      }
    }
    // The accusation itself is signed under the accuser's OWN key — it
    // must pass admission for its lie to enter the ledger at all.
    crypto::SignedEnvelope env = crypto::sign(keys_, accuser, acc.to_bytes());
    conviction_.originate_raw(accuser, acc, std::move(env));
    ++filed_;
  }
  if (--config_.shots > 0 && config_.period.count_nanos() > 0) {
    net_.sim().schedule_in(config_.period, [this] { fire(); });
  }
}

}  // namespace fatih::attacks

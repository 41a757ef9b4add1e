#include "detection/evidence.hpp"

#include <array>

#include "crypto/siphash.hpp"
#include "util/log.hpp"

namespace fatih::detection {

namespace {
constexpr const char* kComponent = "conviction";
/// Distinct precision-1 witnesses required to convict without a proof.
/// 3 tolerates any single liar AND any colluding pair.
constexpr std::size_t kWitnessQuorum = 3;

/// Computed once per payload object and kept on it (PayloadCache).
std::uint64_t payload_key(const sim::ControlPayload& payload) {
  const auto& p = static_cast<const AccusationPayload&>(payload);
  return p.cache.flood_key([&p] {
    // The accusation's fixed fields and the envelope's signer and tag, so
    // differently-signed copies of the same accusation each flood (and
    // each get judged). The cause text and the evidence envelopes are left
    // out: the tag, a MAC over signer ‖ payload, binds them.
    constexpr crypto::SipKey kKey{0x4143435553453036ULL, 0x636F6E7669637431ULL};
    const Accusation& acc = p.accusation;
    const std::array<std::uint64_t, 6> fields{acc.accuser, acc.detector, acc.accused.length(),
                                              static_cast<std::uint64_t>(acc.round),
                                              p.envelope.signer, p.envelope.tag};
    crypto::SipHasher h(kKey);
    h.update(fields.data(), sizeof(fields));
    h.update(acc.accused.nodes().data(), acc.accused.length() * sizeof(util::NodeId));
    return h.finish();
  });
}
}  // namespace

bool valid_equivocation_proof(const crypto::KeyRegistry& keys,
                              std::span<const crypto::SignedEnvelope> evidence,
                              util::NodeId* culprit) {
  if (evidence.size() != 2) return false;
  const crypto::SignedEnvelope& a = evidence[0];
  const crypto::SignedEnvelope& b = evidence[1];
  if (a.signer != b.signer) return false;
  if (!crypto::verify(keys, a) || !crypto::verify(keys, b)) return false;
  // The same statement twice proves nothing.
  if (crypto::equal_bytes(a.payload, b.payload)) return false;
  // Both payloads must decode to the same statement key: the same reporter
  // (== the signer) talking about the same segment/queue in the same round.
  if (auto sa = SegmentSummary::from_bytes(a.payload)) {
    const auto sb = SegmentSummary::from_bytes(b.payload);
    if (!sb.has_value()) return false;
    if (sa->reporter != a.signer || sb->reporter != b.signer) return false;
    if (sa->segment != sb->segment || sa->round != sb->round) return false;
    if (culprit != nullptr) *culprit = a.signer;
    return true;
  }
  if (auto ra = ChiReport::from_bytes(a.payload)) {
    const auto rb = ChiReport::from_bytes(b.payload);
    if (!rb.has_value()) return false;
    if (ra->reporter != a.signer || rb->reporter != b.signer) return false;
    if (ra->queue_owner != rb->queue_owner || ra->queue_peer != rb->queue_peer ||
        ra->round != rb->round || ra->part != rb->part) {
      return false;
    }
    if (culprit != nullptr) *culprit = a.signer;
    return true;
  }
  return false;
}

ConvictionEngine::ConvictionEngine(sim::Network& net, const crypto::KeyRegistry& keys)
    : net_(net), keys_(keys), guard_(net, keys, obs::TraceSource::kConviction) {
  flood_ = std::make_unique<FloodService>(net_, kKindAccusation);
  flood_->set_key_fn(payload_key);
  const auto check = [this](const sim::ControlPayload& payload, std::optional<Accusation>& out) {
    return guard_.check_accusation(static_cast<const AccusationPayload&>(payload), out);
  };
  flood_->set_validate_fn([check](util::NodeId, const sim::ControlPayload& payload) {
    std::optional<Accusation> decoded;
    return check(payload, decoded) == ControlVerdict::kOk;
  });
  flood_->set_invalid_fn([this, check](util::NodeId at, util::NodeId prev,
                                       const sim::ControlPayload& payload, util::SimTime) {
    std::optional<Accusation> decoded;
    guard_.reject(at, prev, -1, check(payload, decoded), nullptr);
  });
  flood_->set_delivery_fn(
      [this, check](util::NodeId, const sim::ControlPayload& payload, util::SimTime) {
        std::optional<Accusation> decoded;
        if (check(payload, decoded) != ControlVerdict::kOk) {
          return;  // an originator's own copy that does not verify
        }
        // The ledger is evaluated once per unique accusation, at its first
        // delivery (the flood delivers everywhere; replicas would agree).
        if (!processed_.insert(payload_key(payload)).second) return;
        guard_.accept();
        on_accusation(*decoded);
      });
}

void ConvictionEngine::accuse(util::NodeId accuser, std::uint8_t detector,
                              const routing::PathSegment& accused, std::int64_t round,
                              const std::string& cause,
                              std::vector<crypto::SignedEnvelope> evidence) {
  Accusation acc;
  acc.accuser = accuser;
  acc.detector = detector;
  acc.accused = accused;
  acc.round = round;
  acc.cause = cause.substr(0, Accusation::kMaxCauseBytes);
  acc.evidence = std::move(evidence);
  crypto::SignedEnvelope env = crypto::sign(keys_, accuser, acc.to_bytes());
  originate_raw(accuser, acc, std::move(env));
}

void ConvictionEngine::originate_raw(util::NodeId from, const Accusation& acc,
                                     crypto::SignedEnvelope env) {
  auto payload = std::make_shared<AccusationPayload>();
  payload->accusation = acc;
  payload->envelope = std::move(env);
  const std::uint32_t bytes = acc.wire_bytes();
  flood_->originate(from, std::move(payload), bytes);
}

void ConvictionEngine::on_accusation(const Accusation& acc) {
  ++accusations_accepted_;
  [[maybe_unused]] const util::NodeId front =
      acc.accused.empty() ? util::kInvalidNode : acc.accused.front();
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   byzantine(net_.sim().now(), obs::TraceSource::kConviction,
                             obs::TraceCode::kAccusation, acc.accuser, front, acc.round,
                             acc.accused.length(), acc.cause.c_str()));
  if (!acc.evidence.empty()) {
    util::NodeId culprit = util::kInvalidNode;
    if (valid_equivocation_proof(keys_, acc.evidence, &culprit)) {
      FATIH_TRACE_EMIT(net_.sim().trace(),
                       byzantine(net_.sim().now(), obs::TraceSource::kConviction,
                                 obs::TraceCode::kEquivocationProven, acc.accuser, culprit,
                                 acc.round, 0, acc.cause.c_str()));
      convict(culprit, acc.round, "equivocation-proof", {acc.accuser});
      return;
    }
    // A well-signed accusation whose attached proof does not check out is
    // itself convicting evidence — against its maker.
    convict(acc.accuser, acc.round, "forged-evidence", {});
    return;
  }
  // Evidence-free witness vote. Precision-1 only — pair accusations are
  // inherently ambiguous and never convict (sandwich frame, see header).
  if (acc.accused.length() != 1) return;
  const util::NodeId target = acc.accused.front();
  if (target == acc.accuser) return;  // self-votes don't count
  if (convicted_.contains(target)) return;
  auto& voters = votes_[target];
  if (!voters.insert(acc.accuser).second) return;  // one vote per accuser
  if (voters.size() >= kWitnessQuorum) {
    convict(target, acc.round, "witness-quorum",
            std::vector<util::NodeId>(voters.begin(), voters.end()));
  }
}

void ConvictionEngine::convict(util::NodeId who, std::int64_t round, const char* basis,
                               std::vector<util::NodeId> witnesses) {
  if (who == util::kInvalidNode) return;
  if (!convicted_.insert(who).second) return;  // convicted once, stays convicted
  Conviction c;
  c.accused = who;
  c.round = round;
  c.basis = basis;
  c.witnesses = std::move(witnesses);
  util::log(util::LogLevel::kInfo, kComponent, "convicted %s (%s, round %lld)",
            util::node_name(who).c_str(), basis, static_cast<long long>(round));
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   byzantine(net_.sim().now(), obs::TraceSource::kConviction,
                             obs::TraceCode::kConviction, who, util::kInvalidNode, round,
                             c.witnesses.size(), basis));
  convictions_.push_back(std::move(c));
}

}  // namespace fatih::detection

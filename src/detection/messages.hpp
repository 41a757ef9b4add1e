// Control-plane messages of the detection protocols.
//
// Summaries travel through the simulated network as signed control
// payloads, so protocol-faulty routers can drop or withhold them — the
// behaviours the distributed-detection layer must tolerate (dissertation
// §2.2.1 "protocol faulty").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/mac.hpp"
#include "routing/segments.hpp"
#include "sim/packet.hpp"
#include "util/time.hpp"
#include "validation/summary.hpp"

namespace fatih::detection {

/// Control payload kinds in the 0x20xx range (detection subsystem).
inline constexpr std::uint16_t kKindSegmentSummary = 0x2001;  ///< Pi(k+2) end-to-end exchange
inline constexpr std::uint16_t kKindSummaryFlood = 0x2002;    ///< Pi2 consensus dissemination
inline constexpr std::uint16_t kKindChiReport = 0x2003;       ///< chi neighbor reports
inline constexpr std::uint16_t kKindAccusation = 0x2004;      ///< evidence-layer accusations
inline constexpr std::uint16_t kKindControlAck = 0x20A0;      ///< reliable-transport acks

/// Decoder caps: every length field read off the wire is validated against
/// the bytes actually present before any allocation, so a malformed count
/// can never trigger an unbounded reserve. These are additional absolute
/// ceilings far above anything a legitimate message carries.
inline constexpr std::uint64_t kMaxSummaryElements = 1u << 20;
inline constexpr std::uint64_t kMaxChiRecords = 1u << 20;
inline constexpr std::uint32_t kMaxSegmentNodes = 1u << 10;

/// info(r, pi, tau): everything router r tells others about the traffic it
/// handled on segment `segment` during round `round`.
struct SegmentSummary {
  util::NodeId reporter = util::kInvalidNode;
  routing::PathSegment segment;
  std::int64_t round = 0;
  validation::CounterSummary counters;
  /// Content fingerprints in forwarding order (doubles as the
  /// conservation-of-order summary; sorted on demand for set operations).
  /// Empty when the summary ships in reconciliation form.
  std::vector<validation::Fingerprint> content;
  /// Appendix-A compressed form: characteristic-polynomial evaluations of
  /// the content set at the shared points, shipped instead of `content`
  /// (O(d) field elements instead of O(n) fingerprints).
  std::vector<std::uint64_t> recon_evals;
  /// Bloom-digest form (§2.4.1): the filter's words, shipped instead of
  /// `content`. Cheap but approximate — the symmetric-difference size is
  /// ESTIMATED from the XOR population.
  std::vector<std::uint64_t> bloom_words;
  std::uint32_t bloom_hashes = 0;

  [[nodiscard]] bool reconciled_form() const { return !recon_evals.empty(); }
  [[nodiscard]] bool bloom_form() const { return !bloom_words.empty(); }

  /// Canonical byte serialization (signed and MAC-verified end to end).
  [[nodiscard]] std::vector<std::byte> to_bytes() const;
  /// Feeds the bytes of to_bytes() to `put(const void* data, std::size_t
  /// len)` part by part, so a hasher can take them without the buffer.
  template <typename Put>
  void encode(Put&& put) const {
    const auto field = [&put](const auto& value) { put(&value, sizeof(value)); };
    const auto array = [&put](const auto& values) {
      put(values.data(), values.size() * sizeof(values[0]));
    };
    field(reporter);
    field(static_cast<std::uint32_t>(segment.length()));
    array(segment.nodes());
    field(round);
    field(counters.packets);
    field(counters.bytes);
    field(static_cast<std::uint64_t>(content.size()));
    array(content);
    field(static_cast<std::uint64_t>(recon_evals.size()));
    array(recon_evals);
    field(static_cast<std::uint64_t>(bloom_words.size()));
    array(bloom_words);
    field(bloom_hashes);
  }
  /// Wire size estimate for the simulated control packet.
  [[nodiscard]] std::uint32_t wire_bytes() const;
  /// Strict inverse of to_bytes(): nullopt on truncation, trailing bytes,
  /// or any length field inconsistent with the bytes present. Never throws
  /// and never allocates more than the input size admits. It is
  /// SegmentSummaryView::parse plus the copy-out, so both make the same
  /// checks.
  [[nodiscard]] static std::optional<SegmentSummary> from_bytes(
      std::span<const std::byte> in);
};

/// An encoded SegmentSummary that passed every check from_bytes makes,
/// read in place: the scalar fields are decoded, the node ids and the
/// three element lists stay spans into the input, which must outlive the
/// view. Admission needs only reporter, round and segment, so a receiver
/// can vet every arriving copy without allocating.
struct SegmentSummaryView {
  util::NodeId reporter = util::kInvalidNode;
  std::int64_t round = 0;
  validation::CounterSummary counters;
  std::uint32_t bloom_hashes = 0;
  std::span<const std::byte> segment;      ///< encoded node ids
  std::span<const std::byte> content;      ///< encoded fingerprints
  std::span<const std::byte> recon_evals;  ///< encoded field elements
  std::span<const std::byte> bloom_words;  ///< encoded filter words

  [[nodiscard]] std::size_t segment_length() const {
    return segment.size() / sizeof(util::NodeId);
  }
  [[nodiscard]] util::NodeId segment_node(std::size_t i) const;
  /// The content fingerprints, copied out.
  [[nodiscard]] std::vector<validation::Fingerprint> content_copy() const;
  /// The owning summary: what from_bytes returns for the same input.
  [[nodiscard]] SegmentSummary materialize() const;

  /// The strict walker: accepts exactly the inputs from_bytes accepts.
  [[nodiscard]] static std::optional<SegmentSummaryView> parse(std::span<const std::byte> in);
};

enum class ControlVerdict : std::uint8_t;  // detection/byzantine.hpp

/// What one payload object's receivers derive from its bytes, computed on
/// the object once and read by every later check and every hop copy:
///  - ControlGuard's verdict: its MAC, strict parse and signer check. They
///    read only the object's envelope and the key registry, and every
///    guard on one network is built from that network's single
///    KeyRegistry, so the first check of an object decides for every guard
///    and every later check is an O(1) hit;
///  - the flood key (summary_flood_key, the conviction layer's accusation
///    key), which is also the reliable channel's ack msg_key.
/// Every hop copy of a flood is the same shared object. Round admission,
/// the accept/reject counts, tracing and hop blame still run for each copy.
///
/// Both stay true because a payload is written only before its first send
/// (attacks/byzantine.hpp states the rule for the attacks and asserts it
/// where they write); after that it is shared immutable state. Copying or
/// assigning the member resets it, so a deep copy such as a tamperer's
/// clone starts unjudged and unkeyed and is checked and keyed in full.
/// Under the sharded engine every check and every flood key runs in the
/// barrier's serial phase (the control replay, then the control
/// simulator's round timers), so the cache is never written while PoP
/// workers run.
class PayloadCache {
 public:
  PayloadCache() = default;
  PayloadCache(const PayloadCache& /*other*/) noexcept
      : verdict_(std::nullopt), flood_key_(std::nullopt) {}
  PayloadCache& operator=(const PayloadCache& /*other*/) noexcept {
    verdict_ = std::nullopt;
    flood_key_ = std::nullopt;
    return *this;
  }

  [[nodiscard]] bool judged() const { return verdict_.has_value(); }
  [[nodiscard]] bool keyed() const { return flood_key_.has_value(); }

  /// The flood key: `compute()` on the first call, the kept value after.
  template <typename Compute>
  [[nodiscard]] std::uint64_t flood_key(Compute&& compute) const {
    if (!flood_key_.has_value()) flood_key_ = compute();
    return *flood_key_;
  }

 private:
  friend class ControlGuard;
  mutable std::optional<ControlVerdict> verdict_;
  mutable std::optional<std::uint64_t> flood_key_;
};

/// A signed SegmentSummary in flight (both the Pi(k+2) unicast exchange
/// and the Pi2 flood use this payload; `kind_tag` distinguishes them).
struct SegmentSummaryPayload final : sim::ControlPayload {
  SegmentSummary summary;
  crypto::SignedEnvelope envelope;
  PayloadCache cache;
  std::uint16_t kind_tag = kKindSegmentSummary;
  [[nodiscard]] std::uint16_t kind() const override { return kind_tag; }
};

/// One timestamped record of the chi protocol's ingress stream, §6.2.1.
struct ChiRecord {
  validation::Fingerprint fp = 0;
  std::uint32_t size_bytes = 0;
  std::uint32_t flow_id = 0;
  /// Control-plane packets bypass RED/drop-tail admission (see
  /// sim/queue.cpp); the replay must model them the same way.
  bool control = false;
  util::SimTime ts;  ///< predicted queue-entry time
};

/// Tinfo(rs, Qin, <rs, r, rd>, tau): neighbor rs reports what it fed into
/// router r's output queue toward rd during `round`.
struct ChiReport {
  util::NodeId reporter = util::kInvalidNode;
  util::NodeId queue_owner = util::kInvalidNode;  ///< r
  util::NodeId queue_peer = util::kInvalidNode;   ///< rd
  std::int64_t round = 0;
  /// Reports are fragmented into MTU-sized parts (dissertation §7.4.4:
  /// oversized control messages must not become jumbo frames); part is
  /// 0-based, parts is the total count. The validator requires all parts.
  std::uint32_t part = 0;
  std::uint32_t parts = 1;
  std::vector<ChiRecord> records;

  [[nodiscard]] std::vector<std::byte> to_bytes() const;
  [[nodiscard]] std::uint32_t wire_bytes() const;
  /// Strict inverse of to_bytes(); same contract as SegmentSummary's.
  [[nodiscard]] static std::optional<ChiReport> from_bytes(std::span<const std::byte> in);
};

struct ChiReportPayload final : sim::ControlPayload {
  ChiReport report;
  crypto::SignedEnvelope envelope;
  PayloadCache cache;
  [[nodiscard]] std::uint16_t kind() const override { return kKindChiReport; }
};

/// A signed statement that some router within `accused` misbehaved during
/// `round` — the input of the evidence-based conviction layer. Evidence is
/// either empty (a witness vote, convicting only by quorum) or a pair of
/// conflicting signed envelopes proving equivocation by their signer.
struct Accusation {
  util::NodeId accuser = util::kInvalidNode;
  /// Which detector raised the underlying suspicion (obs::TraceSource
  /// value, carried as a raw byte to keep the wire format layer-free).
  std::uint8_t detector = 0;
  routing::PathSegment accused{};
  std::int64_t round = 0;
  std::string cause{};  ///< suspicion cause tag; capped at kMaxCauseBytes
  std::vector<crypto::SignedEnvelope> evidence{};

  static constexpr std::uint32_t kMaxCauseBytes = 64;
  static constexpr std::uint32_t kMaxEvidence = 4;
  static constexpr std::uint32_t kMaxEvidencePayload = 1u << 16;

  [[nodiscard]] std::vector<std::byte> to_bytes() const;
  [[nodiscard]] std::uint32_t wire_bytes() const;
  /// Strict inverse of to_bytes(); same contract as SegmentSummary's.
  [[nodiscard]] static std::optional<Accusation> from_bytes(std::span<const std::byte> in);
};

struct AccusationPayload final : sim::ControlPayload {
  Accusation accusation;
  crypto::SignedEnvelope envelope;  ///< signed by the accuser over to_bytes()
  PayloadCache cache;
  [[nodiscard]] std::uint16_t kind() const override { return kKindAccusation; }
};

}  // namespace fatih::detection

// Byzantine control-plane verification (the hardening layer of PR 6).
//
// Every control message a detection engine consumes passes through a
// ControlGuard before any protocol state changes: MAC verification against
// the key registry, strict canonical decode (messages.hpp from_bytes), a
// signer/reporter identity match, and a monotone round watermark that
// rejects stale replays and far-future rounds. Rejected messages are
// dropped, counted (ByzantineStats), traced (kByzantine category) and
// — where the rejection is attributable — converted into sender suspicion
// by the calling engine. Rounds never stall on a rejection: evaluation
// proceeds on whatever verified summaries arrived.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/mac.hpp"
#include "detection/messages.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"

namespace fatih::detection {

/// Why a control message was rejected (kOk = accepted).
enum class ControlVerdict : std::uint8_t {
  kOk = 0,
  kBadMac,          ///< envelope MAC does not verify (tampered or forged)
  kSignerMismatch,  ///< envelope signer != claimed reporter/accuser
  kMalformed,       ///< payload fails the strict canonical decode
  kStale,           ///< round at/below the receiver's closed watermark
  kFuture,          ///< round beyond the next open round
};
[[nodiscard]] const char* to_string(ControlVerdict v);

/// Verification counters; each rejection is also traced as a
/// kControlRejected event whose value is the verdict.
struct ByzantineStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_bad_mac = 0;
  std::uint64_t rejected_signer_mismatch = 0;
  std::uint64_t rejected_malformed = 0;
  std::uint64_t rejected_stale = 0;
  std::uint64_t rejected_future = 0;

  [[nodiscard]] std::uint64_t rejected() const {
    return rejected_bad_mac + rejected_signer_mismatch + rejected_malformed + rejected_stale +
           rejected_future;
  }
};

/// The shared verification front-end. One guard per engine; the engine
/// calls a check_* primitive, then accept() or reject() so every drop is
/// counted and traced uniformly.
class ControlGuard {
 public:
  /// `source` tags the trace events. The signing keys of the network's
  /// nodes are looked up here, once.
  ControlGuard(sim::Network& net, const crypto::KeyRegistry& keys, obs::TraceSource source);

  /// Decode-and-verify primitives: MAC, strict canonical decode, signer
  /// identity. On any failure the optional stays empty and the verdict
  /// names the first check that failed; the caller then reject()s with
  /// whatever hop attribution it has. The envelope payload is
  /// authoritative — callers must use the decoded value, never a
  /// convenience copy that rode alongside it. The verdict is kept on the
  /// payload object (PayloadCache), so a later check of the same object
  /// skips the MAC and, on success, only decodes again.
  [[nodiscard]] ControlVerdict check_summary(const SegmentSummaryPayload& payload,
                                             std::optional<SegmentSummary>& out) const;
  /// The same checks without the copy-out: `out` reads the envelope's
  /// payload in place, so it is valid while the payload object lives.
  [[nodiscard]] ControlVerdict check_summary(const SegmentSummaryPayload& payload,
                                             std::optional<SegmentSummaryView>& out) const;
  [[nodiscard]] ControlVerdict check_report(const ChiReportPayload& payload,
                                            std::optional<ChiReport>& out) const;
  [[nodiscard]] ControlVerdict check_accusation(const AccusationPayload& payload,
                                                std::optional<Accusation>& out) const;

  /// Anti-replay admission: accepts rounds in (closed_round, current+1].
  /// On kStale, *margin (when non-null) is how far below the watermark the
  /// round fell — margin >= kSuspectMargin cannot be a late retransmit of
  /// the retry schedule and warrants suspicion; smaller margins only count.
  [[nodiscard]] ControlVerdict admit_round(std::int64_t round, std::int64_t closed_round,
                                           std::int64_t current_round,
                                           std::int64_t* margin = nullptr) const;
  static constexpr std::int64_t kSuspectMargin = 2;

  /// Counts an accepted message.
  void accept();
  /// Counts, traces and attributes a rejection: `at` observed it, `from`
  /// handed over the bad message (kInvalidNode when unattributable).
  void reject(util::NodeId at, util::NodeId from, std::int64_t round, ControlVerdict v,
              const char* note);

  [[nodiscard]] const ByzantineStats& stats() const { return stats_; }

 private:
  /// The verdict cached on `payload`, or, on its first check, the MAC and
  /// then `decode(envelope)` (strict parse and signer check, filling the
  /// caller's optional only when both pass), cached. On a hit with kOk
  /// `decode` runs again for the caller's value.
  template <typename Payload, typename Decode>
  ControlVerdict judge(const Payload& payload, Decode&& decode) const;
  /// crypto::verify under the signer's key: from signing_keys_ for ids
  /// below the network's node count at construction, else the registry.
  [[nodiscard]] bool verify(const crypto::SignedEnvelope& env) const;

  sim::Network& net_;
  const crypto::KeyRegistry& keys_;
  /// Signing key per node id, looked up once, at construction, from the
  /// network's one key registry and never written again. Checks run only
  /// in the sharded engine's serial phase, so no shard worker reads it.
  std::vector<crypto::SipKey> signing_keys_;
  obs::TraceSource source_;
  ByzantineStats stats_;
};

}  // namespace fatih::detection

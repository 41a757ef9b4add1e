// Evidence-based conviction layer.
//
// Detection engines raise SUSPICIONS (segment-scoped, possibly wrong about
// which endpoint lied). Conviction — removing a router from the fabric —
// demands a strictly higher bar, because a Byzantine router can always
// manufacture suspicions against an honest neighbor. A router is convicted
// only on:
//
//   * an equivocation proof: two MAC-valid envelopes from the same signer
//     whose payloads decode to the SAME statement key (same reporter +
//     segment/queue + round[/part]) with DIFFERENT content. Only the
//     signer can produce such a pair, so the proof is self-incriminating;
//   * forged evidence: a well-signed accusation whose attached "proof"
//     does not check out. The accusation itself is signed, so shipping a
//     fabricated proof convicts the ACCUSER;
//   * a witness quorum: >= 3 DISTINCT accusers each filing an
//     evidence-free precision-1 accusation against the same router
//     (self-votes excluded).
//
// Precision-2 accusations NEVER convict: a colluding pair adjacent to an
// honest router X can make {C1,X} and {C2,X} both fail TV, so any
// intersection rule over pairs would convict X (the "sandwich frame",
// DESIGN.md). With these three rules a single liar — or a colluding pair —
// cannot convict an honest router: they contribute at most 2 distinct
// witnesses and cannot fabricate proofs under an honest router's key.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "detection/byzantine.hpp"
#include "detection/flood.hpp"
#include "detection/messages.hpp"
#include "util/flat_map.hpp"

namespace fatih::detection {

/// Checks a two-envelope equivocation proof (see file comment). On
/// success, *culprit is the convicted signer.
[[nodiscard]] bool valid_equivocation_proof(const crypto::KeyRegistry& keys,
                                            std::span<const crypto::SignedEnvelope> evidence,
                                            util::NodeId* culprit);

/// One conviction verdict from the shared ledger.
struct Conviction {
  util::NodeId accused = util::kInvalidNode;
  std::int64_t round = 0;
  /// "equivocation-proof", "forged-evidence" or "witness-quorum".
  std::string basis{};
  std::vector<util::NodeId> witnesses{};
};

/// Floods signed accusations (kKindAccusation) and maintains the
/// conviction ledger. Accusations are verified before re-flood (an invalid
/// copy is dropped at the first honest hop); the ledger itself is
/// evaluated once per unique accusation — the flood is reliable and the
/// rules deterministic, so per-router replicas would be identical, and the
/// single evaluation keeps the simulation state small.
class ConvictionEngine {
 public:
  ConvictionEngine(sim::Network& net, const crypto::KeyRegistry& keys);

  /// Honest entry point: router `accuser` signs and floods an accusation.
  /// `detector` is the raw obs::TraceSource of the engine that raised the
  /// underlying suspicion; `evidence` is empty (witness vote) or an
  /// equivocation proof pair.
  void accuse(util::NodeId accuser, std::uint8_t detector, const routing::PathSegment& accused,
              std::int64_t round, const std::string& cause,
              std::vector<crypto::SignedEnvelope> evidence = {});

  /// Adversarial entry point: floods `acc` under a caller-supplied
  /// envelope without signing locally. Attacks use this to ship forged or
  /// mis-signed accusations; honest accuse() routes through it too.
  void originate_raw(util::NodeId from, const Accusation& acc, crypto::SignedEnvelope env);

  [[nodiscard]] const std::vector<Conviction>& convictions() const { return convictions_; }
  [[nodiscard]] bool convicted(util::NodeId r) const { return convicted_.contains(r); }

  /// Valid accusations admitted to the ledger (post-dedup).
  [[nodiscard]] std::uint64_t accusations_accepted() const { return accusations_accepted_; }
  [[nodiscard]] const ByzantineStats& stats() const { return guard_.stats(); }
  [[nodiscard]] const FloodService& flood() const { return *flood_; }

 private:
  void on_accusation(const Accusation& acc);
  void convict(util::NodeId who, std::int64_t round, const char* basis,
               std::vector<util::NodeId> witnesses);

  sim::Network& net_;
  const crypto::KeyRegistry& keys_;
  ControlGuard guard_;
  std::unique_ptr<FloodService> flood_;
  util::FlatSet<std::uint64_t> processed_;  ///< accusation keys already ledgered
  /// accused -> distinct precision-1 accusers (evidence-free votes).
  util::FlatMap<util::NodeId, util::FlatSet<util::NodeId>> votes_;
  util::FlatSet<util::NodeId> convicted_;
  std::vector<Conviction> convictions_;
  std::uint64_t accusations_accepted_ = 0;
};

}  // namespace fatih::detection

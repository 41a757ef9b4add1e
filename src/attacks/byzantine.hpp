// Byzantine control-plane adversary library (PR 6 threat coverage).
//
// Where attacks.hpp models the DATA-plane threat classes, these attacks go
// after the detectors themselves — the control messages (summaries,
// reports, accusations) through which Pi2 / Pi(k+2) / chi agree on who
// misbehaved:
//   * ControlTamperAttack: mutates signed detection payloads in transit at
//     a compromised forwarding hop (the MAC no longer verifies);
//   * ForgedControlInjector: emits summaries claiming a victim reporter's
//     identity — either with a fabricated MAC (kBadMac at every honest
//     receiver) or signed under the attacker's own key (kSignerMismatch);
//   * StaleReplayAttack: captures genuine signed control packets passing
//     its compromised router and re-emits them rounds later, probing the
//     anti-replay watermark;
//   * FalseAccusationAttack: one liar (or a colluding pair) floods signed
//     evidence-free accusations against an honest victim every round —
//     and optionally attaches fabricated "equivocation proofs", which the
//     evidence layer turns against the accuser.
//
// None of these can convict an honest router: tampered/forged envelopes
// die at verification, replays die at the round watermark, and the
// conviction rules (detection/evidence.hpp) need a witness quorum or a
// self-incriminating proof no attacker can fabricate for another's key.
//
// Mutation rule: an attack writes a payload only before its first send —
// ForgedControlInjector fills a fresh payload, ControlTamperAttack
// corrupts a deep copy — and never touches an object already in flight.
// The guards keep their verdict and the floods their key on the payload
// object (PayloadCache in detection/messages.hpp), so writing a sent
// payload in place would let it keep a verdict its new bytes never earned
// and a key they do not hash to; both write sites assert that no guard
// has judged the object and no flood has keyed it yet.
#pragma once

#include <cstdint>
#include <vector>

#include "attacks/attacks.hpp"
#include "crypto/keys.hpp"
#include "detection/messages.hpp"
#include "detection/types.hpp"
#include "routing/segments.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace fatih::detection {
class ConvictionEngine;
}

namespace fatih::attacks {

/// Mutates the signed envelope of matching detection payloads the
/// compromised router is asked to FORWARD (routed Pi(k+2) exchanges and
/// chi reports transit interior hops; Pi2 flood copies are neighbor-direct
/// and never cross a forwarding hop — forge those with
/// ForgedControlInjector instead). The flipped byte invalidates the MAC,
/// so every honest receiver rejects the copy.
class ControlTamperAttack final : public sim::ForwardFilter {
 public:
  struct Config {
    /// Payload kinds to corrupt; empty = every signed detection kind.
    std::vector<std::uint16_t> kinds;
    double fraction = 1.0;
    util::SimTime active_from;
    std::uint64_t seed = 1;
  };

  explicit ControlTamperAttack(Config config);
  sim::ForwardDecision on_forward(const sim::Packet& p, util::NodeId prev,
                                  const sim::Interface& out, sim::Router& router) override;

  [[nodiscard]] std::uint64_t tampered() const { return tampered_; }

 private:
  Config config_;
  util::Rng rng_;
  std::uint64_t tampered_ = 0;
};

/// Fabricates control messages under a victim's claimed identity and emits
/// them from the compromised router — to all router neighbors (flood
/// kinds) or routed to `dst`. With `sign_with_own_key` the envelope
/// verifies but the signer contradicts the claimed reporter
/// (kSignerMismatch); without it the MAC is garbage (kBadMac).
class ForgedControlInjector {
 public:
  struct Config {
    util::NodeId at = util::kInvalidNode;      ///< compromised emitter
    util::NodeId victim = util::kInvalidNode;  ///< claimed reporter
    std::uint16_t kind = detection::kKindSummaryFlood;
    /// Routed target (Pi(k+2)/chi); kInvalidNode = all router neighbors.
    util::NodeId dst = util::kInvalidNode;
    routing::PathSegment segment;  ///< claimed segment of the forgery
    detection::RoundClock clock;
    util::SimTime start;
    util::Duration period;  ///< zero = single shot
    std::int64_t shots = 1;
    bool sign_with_own_key = false;
  };

  ForgedControlInjector(sim::Network& net, const crypto::KeyRegistry& keys, Config config);

  [[nodiscard]] std::uint64_t injected() const { return injected_; }

 private:
  void fire();
  void emit(const sim::Packet& p, util::NodeId to) const;

  sim::Network& net_;
  const crypto::KeyRegistry& keys_;
  Config config_;
  std::uint64_t injected_ = 0;
};

/// Captures genuine signed control packets arriving at the compromised
/// router and re-emits byte-identical copies `delay` later (several rounds
/// downstream, e.g. 3*tau). Flood-kind captures are replayed to every
/// router neighbor; routed kinds are re-originated toward their original
/// destination. The engines' round watermark classifies each replayed
/// copy as stale.
class StaleReplayAttack {
 public:
  struct Config {
    util::NodeId at = util::kInvalidNode;  ///< compromised capture point
    std::vector<std::uint16_t> kinds;      ///< empty = all detection kinds
    util::Duration delay;                  ///< capture-to-replay lag
    util::SimTime active_from;
    std::size_t max_captures = 64;  ///< replay budget (and memory bound)
  };

  StaleReplayAttack(sim::Network& net, Config config);

  [[nodiscard]] std::uint64_t captured() const { return captured_; }
  [[nodiscard]] std::uint64_t replayed() const { return replayed_; }

 private:
  void replay(sim::Packet p);

  sim::Network& net_;
  Config config_;
  std::uint64_t captured_ = 0;
  std::uint64_t replayed_ = 0;
};

/// One liar — or a colluding set — repeatedly files signed accusations
/// against an honest victim through the conviction layer. Evidence-free
/// accusations are legitimate witness votes: below the quorum they can
/// never convict. With `forge_evidence` each accusation ships a fabricated
/// "equivocation proof" under the victim's name; the evidence layer
/// detects the invalid proof and convicts the ACCUSER instead.
class FalseAccusationAttack {
 public:
  struct Config {
    std::vector<util::NodeId> accusers;  ///< 1 = single liar, 2 = colluding pair
    util::NodeId victim = util::kInvalidNode;
    std::uint8_t detector = 0;  ///< obs::TraceSource byte to claim
    detection::RoundClock clock;
    util::SimTime start;
    util::Duration period;  ///< zero = single volley
    std::int64_t shots = 1;
    bool forge_evidence = false;
  };

  FalseAccusationAttack(sim::Network& net, const crypto::KeyRegistry& keys,
                        detection::ConvictionEngine& conviction, Config config);

  [[nodiscard]] std::uint64_t filed() const { return filed_; }

 private:
  void fire();

  sim::Network& net_;
  const crypto::KeyRegistry& keys_;
  detection::ConvictionEngine& conviction_;
  Config config_;
  std::uint64_t filed_ = 0;
};

}  // namespace fatih::attacks

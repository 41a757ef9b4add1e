// Reliable control transport for the detection protocols.
//
// The dissertation's threat model (§2.2.1) already charges protocol-faulty
// routers with dropping the detection protocol's own traffic, and the
// Fatih prototype ran its validator exchanges over TCP for exactly that
// reason (§5.3.1). This layer supplies the equivalent in the simulator: an
// ack/retransmit channel with per-destination RTO estimation (Jacobson
// SRTT/RTTVAR with Karn's rule), exponential backoff with deterministic
// jitter, a bounded retry budget, and receiver-side duplicate suppression.
// Every retry is bounded, so a withheld or undeliverable summary surfaces
// as a FailureFn callback instead of a silently stalled round — the
// detectors turn that into a *suspicion* (withholding is itself evidence).
//
// The channel does not wrap payloads: packets carry the original
// ControlPayload, so existing control sinks keep firing and a receiver
// acks every arriving copy (duplicates included, so retransmissions of
// already-delivered messages stop even when the first ack was lost).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "detection/messages.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace fatih::detection {

/// Ack for one reliably-sent control message. `msg_key` is the channel's
/// dedup key of the acked payload; `acked_kind` routes the ack to the
/// right channel when several coexist. `tag` authenticates the ack: a MAC
/// over (acked_kind, msg_key, acker, addressee) under the pairwise key of
/// acker and addressee, so only the genuine receiver of a message can
/// settle the sender's retransmission state — a third router spoofing
/// acks cannot make an exchange look delivered.
struct ControlAckPayload final : sim::ControlPayload {
  std::uint16_t acked_kind = 0;
  std::uint64_t msg_key = 0;
  util::NodeId acker = util::kInvalidNode;
  crypto::MacTag tag = 0;
  [[nodiscard]] std::uint16_t kind() const override { return kKindControlAck; }
};

/// The ack MAC (exposed so tests can forge tags for the negative cases).
[[nodiscard]] crypto::MacTag ack_tag(const crypto::KeyRegistry& keys, std::uint16_t acked_kind,
                                     std::uint64_t msg_key, util::NodeId acker,
                                     util::NodeId addressee);

/// Retransmission policy of a ReliableChannel. Defaults are tuned for the
/// millisecond-scale links of the evaluation topologies; `enabled = false`
/// keeps legacy fire-and-forget behavior (and bit-identical traffic).
struct ReliableConfig {
  bool enabled = false;
  /// RTO before any RTT sample exists for a destination.
  util::Duration initial_rto = util::Duration::millis(40);
  /// Clamp for the adaptive RTO (SRTT + 4*RTTVAR).
  util::Duration min_rto = util::Duration::millis(10);
  util::Duration max_rto = util::Duration::millis(200);
  /// Each armed timer is scaled by 1 + jitter*U(-1,1) (deterministic via
  /// the channel's seeded rng) to de-synchronize retry bursts.
  double jitter = 0.25;
  /// Retransmissions after the first send; exhausting the budget fires
  /// the FailureFn and abandons the message.
  std::size_t max_retries = 6;
};

/// Canonical duplicate-suppression key for summary-shaped control
/// messages: (reporter, segment, round, kind).
[[nodiscard]] std::uint64_t summary_dedup_key(util::NodeId reporter,
                                              const routing::PathSegment& segment,
                                              std::int64_t round, std::uint16_t kind);

/// One reliable channel per control `kind`: tracks every send() until it
/// is acked, retransmitting with backoff, and acks/dedups at receivers.
/// Installed on every node, so hosts (chi reporters) participate too.
class ReliableChannel {
 public:
  /// How a message (and its ack) travels.
  enum class Via {
    kDirect,  ///< straight out the interface to an adjacent node (flooding;
              ///< needs no routes, bypasses the sender's forward filter)
    kRouted,  ///< through Router::originate / Host::send (end-to-end
              ///< exchanges; the sender's own forward filter applies)
  };

  /// Dedup/ack key of a payload; must be injective per distinct message.
  using KeyFn = std::function<std::uint64_t(const sim::ControlPayload&)>;
  /// Fires once per (node, key) on first delivery.
  using DeliveryFn =
      std::function<void(util::NodeId at, const sim::ControlPayload&, util::SimTime)>;
  /// Fires at the sender when the retry budget for a message is exhausted.
  using FailureFn = std::function<void(util::NodeId from, util::NodeId to,
                                       const sim::ControlPayload&, util::SimTime)>;

  ReliableChannel(sim::Network& net, const crypto::KeyRegistry& keys, std::uint16_t kind,
                  ReliableConfig config);

  void set_key_fn(KeyFn f) { key_fn_ = std::move(f); }
  void set_delivery_fn(DeliveryFn f) { delivery_fn_ = std::move(f); }
  void set_failure_fn(FailureFn f) { failure_fn_ = std::move(f); }

  /// Sends `payload` from `from` to `to`, retransmitting until acked or
  /// the retry budget runs out. A message with a key already in flight
  /// between the same pair is dropped as a duplicate send.
  void send(util::NodeId from, util::NodeId to,
            std::shared_ptr<const sim::ControlPayload> payload, std::uint32_t wire_bytes,
            Via via = Via::kRouted);

  /// Current retransmission timeout the channel would use from -> to.
  [[nodiscard]] util::Duration current_rto(util::NodeId from, util::NodeId to) const;

  /// Messages still awaiting an ack (0 = quiescent; tests assert no
  /// deadlocked state at the end of a run).
  [[nodiscard]] std::size_t in_flight() const { return pending_.size(); }

  struct Stats {
    std::uint64_t messages = 0;       ///< distinct send() calls accepted
    std::uint64_t transmissions = 0;  ///< first sends + retransmissions
    std::uint64_t retransmits = 0;
    std::uint64_t failures = 0;       ///< retry budget exhausted
    std::uint64_t acks_sent = 0;
    std::uint64_t acks_received = 0;  ///< acks that settled a pending send
    std::uint64_t acks_rejected = 0;  ///< acks failing MAC verification
    std::uint64_t duplicates = 0;     ///< receiver-side duplicate payloads
    std::uint64_t payload_bytes = 0;  ///< wire bytes of all transmissions
    std::uint64_t ack_bytes = 0;      ///< wire bytes of all acks
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const ReliableConfig& config() const { return config_; }

 private:
  /// (sender, destination, message key).
  using PendingKey = std::tuple<util::NodeId, util::NodeId, std::uint64_t>;

  struct Pending {
    std::shared_ptr<const sim::ControlPayload> payload;
    std::uint32_t wire_bytes = 0;
    Via via = Via::kRouted;
    std::size_t attempts = 0;  ///< transmissions so far
    bool retransmitted = false;
    util::SimTime last_sent;
    util::Duration rto;
    sim::EventId timer = 0;
  };

  /// Jacobson/Karels estimator state for one (from, to) pair.
  struct RttState {
    bool valid = false;
    double srtt_s = 0.0;
    double rttvar_s = 0.0;
  };

  void transmit(const PendingKey& key, Pending& p);
  void arm_timer(const PendingKey& key, Pending& p);
  void on_timeout(const PendingKey& key);
  void on_message(util::NodeId at, const sim::Packet& p);
  void on_ack(util::NodeId at, const ControlAckPayload& ack);
  /// Puts a control packet on the wire from -> to, direct if adjacent.
  void emit(util::NodeId from, util::NodeId to,
            std::shared_ptr<const sim::ControlPayload> payload, std::uint32_t wire_bytes,
            Via via);
  void sample_rtt(util::NodeId from, util::NodeId to, util::Duration sample);

  static std::uint64_t pair_key(util::NodeId from, util::NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  sim::Network& net_;
  const crypto::KeyRegistry& keys_;
  std::uint16_t kind_;
  ReliableConfig config_;
  util::Rng rng_;
  KeyFn key_fn_;
  DeliveryFn delivery_fn_;
  FailureFn failure_fn_;
  std::map<PendingKey, Pending> pending_;
  std::map<std::uint64_t, RttState> rtt_;
  std::vector<std::set<std::uint64_t>> seen_;  ///< receiver dedup, per node
  Stats stats_;
};

}  // namespace fatih::detection

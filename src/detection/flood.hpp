// Robust flooding of detection payloads (Perlman-style, §3.7; the
// dissertation's Pi2 relies on consensus over signed values, which with a
// signature infrastructure and the good-path condition reduces to robust
// flooding of signed messages: every correct router receives every correct
// router's signed summary, and equivocation by a faulty router is
// detectable because two conflicting signed values for the same key both
// circulate).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

#include "sim/network.hpp"
#include "util/types.hpp"

namespace fatih::detection {

class ReliableChannel;

/// Floods control payloads to every router; delivery callbacks fire at
/// each correct router as copies arrive. A compromised router can be told
/// to suppress re-flooding (protocol-faulty behavior); the good-path
/// condition keeps dissemination alive regardless. Hop copies travel
/// neighbour-direct, so an arriving copy whose source is not the hop that
/// handed it over (hdr.src != prev, i.e. routed) is dropped unjudged: no
/// delivery, no blame, no re-flood.
class FloodService {
 public:
  /// `kind` selects which control payloads this service owns.
  FloodService(sim::Network& net, std::uint16_t kind);

  /// Deduplication key: payloads with equal keys are flooded once. On the
  /// flood path the key is taken after validation (when a ValidateFn is
  /// set), so it only has to separate copies that passed it. A reliable
  /// channel sharing this function takes it before validation, for acks
  /// and receiver dedup, so it must also keep apart the unvalidated copies
  /// that should not settle each other.
  using KeyFn = std::function<std::uint64_t(const sim::ControlPayload&)>;
  void set_key_fn(KeyFn fn) { key_fn_ = std::move(fn); }

  /// Called at router `at` whenever a new (non-duplicate) payload arrives.
  using DeliveryFn =
      std::function<void(util::NodeId at, const sim::ControlPayload&, util::SimTime)>;
  void set_delivery_fn(DeliveryFn fn) { delivery_fn_ = std::move(fn); }

  /// Verify-before-reflood: when set, every arriving hop copy is validated
  /// BEFORE delivery and re-flood. A failing copy is dropped — honest
  /// routers never propagate unverifiable control traffic — and invalid_fn
  /// (if set) fires with the hop that handed it over, which in the
  /// simulation is ground truth and therefore supports a precision-1
  /// suspicion of that hop. Locally originated payloads skip validation.
  /// Rejected copies are not marked seen, so the same content arriving
  /// over a clean path is still judged on its own merits.
  using ValidateFn = std::function<bool(util::NodeId at, const sim::ControlPayload&)>;
  void set_validate_fn(ValidateFn fn) { validate_fn_ = std::move(fn); }
  using InvalidFn = std::function<void(util::NodeId at, util::NodeId prev,
                                       const sim::ControlPayload&, util::SimTime)>;
  void set_invalid_fn(InvalidFn fn) { invalid_fn_ = std::move(fn); }

  /// Originates a flood at `from`.
  void originate(util::NodeId from, std::shared_ptr<const sim::ControlPayload> payload,
                 std::uint32_t wire_bytes);

  /// Makes `r` stop re-flooding (protocol-faulty suppression). It still
  /// receives payloads addressed to it.
  void suppress_at(util::NodeId r) { suppressed_.insert(r); }

  /// Routes every hop copy through a reliable channel (ack/retransmit per
  /// link) instead of fire-and-forget interface sends. The channel must
  /// share this service's kind and key function and outlive it.
  void set_channel(ReliableChannel* ch) { channel_ = ch; }

  /// Hop copies sent (first transmissions; the channel counts retries).
  [[nodiscard]] std::uint64_t copies_sent() const { return copies_sent_; }
  /// Wire bytes of those first transmissions, headers included.
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  void on_control(util::NodeId at, const sim::Packet& p, util::NodeId prev);
  void forward_copies(util::NodeId at, std::shared_ptr<const sim::ControlPayload> payload,
                      std::uint32_t bytes, util::NodeId except_peer);

  sim::Network& net_;
  std::uint16_t kind_;
  KeyFn key_fn_;
  DeliveryFn delivery_fn_;
  ValidateFn validate_fn_;
  InvalidFn invalid_fn_;
  ReliableChannel* channel_ = nullptr;
  std::set<util::NodeId> suppressed_;
  // Per node: the keys already delivered there. Membership only, never
  // iterated, so a hash set keeps the per-copy check O(1).
  std::vector<std::unordered_set<std::uint64_t>> seen_;
  std::uint64_t copies_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace fatih::detection

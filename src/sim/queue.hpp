// Output-interface queues.
//
// Every router interface owns an output queue with a byte limit
// (dissertation §6: "the bandwidth, the delay of each link, and the queue
// limit for each interface are all known publicly"). The base interface is
// implemented by a drop-tail FIFO here and by RED in sim/red.hpp.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>

#include "sim/packet.hpp"
#include "util/time.hpp"

namespace fatih::sim {

/// Why a queue refused a packet.
enum class EnqueueResult {
  kAccepted,
  kDroppedFull,      ///< hard byte-limit overflow (drop-tail)
  kDroppedRedEarly,  ///< RED probabilistic early drop
  kDroppedLinkDown,  ///< interface refused the packet: link is down
};

/// FIFO output queue abstraction.
///
/// Invariant: byte_length() is the sum of size_bytes over queued packets
/// and never exceeds byte_limit().
class OutputQueue {
 public:
  virtual ~OutputQueue() = default;

  /// Offers a packet at time `now`; the queue may accept or drop it.
  virtual EnqueueResult enqueue(const Packet& p, util::SimTime now) = 0;

  /// Removes the head packet, if any. `now` lets RED track idle periods.
  virtual std::optional<Packet> dequeue(util::SimTime now) = 0;

  /// True iff enqueue(p) followed immediately by dequeue() would return
  /// `p` unchanged and leave NO lasting state behind — the idle-transmitter
  /// fast path in Interface::send then skips the queue entirely. A queue
  /// whose admission updates internal state on every offer (RED's average
  /// tracking) must keep the default `false`.
  [[nodiscard]] virtual bool pass_through(const Packet& p, util::SimTime now) const {
    (void)p;
    (void)now;
    return false;
  }

  [[nodiscard]] virtual std::size_t byte_length() const = 0;
  [[nodiscard]] virtual std::size_t packet_count() const = 0;
  [[nodiscard]] virtual std::size_t byte_limit() const = 0;
};

/// Plain drop-tail FIFO: accept unless the byte limit would be exceeded.
class DropTailQueue final : public OutputQueue {
 public:
  explicit DropTailQueue(std::size_t byte_limit) : limit_(byte_limit) {}

  EnqueueResult enqueue(const Packet& p, util::SimTime now) override;
  std::optional<Packet> dequeue(util::SimTime now) override;
  /// Drop-tail keeps no admission state, so an empty queue passes a packet
  /// straight through whenever plain enqueue would have accepted it.
  [[nodiscard]] bool pass_through(const Packet& p, util::SimTime /*now*/) const override {
    return q_.empty() && (p.is_control() || p.size_bytes <= limit_);
  }
  [[nodiscard]] std::size_t byte_length() const override { return bytes_; }
  [[nodiscard]] std::size_t packet_count() const override { return q_.size(); }
  [[nodiscard]] std::size_t byte_limit() const override { return limit_; }

 private:
  std::size_t limit_;
  std::size_t bytes_ = 0;
  std::deque<Packet> q_;
};

}  // namespace fatih::sim

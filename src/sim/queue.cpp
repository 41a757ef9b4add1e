#include "sim/queue.hpp"

namespace fatih::sim {

EnqueueResult DropTailQueue::enqueue(const Packet& p, util::SimTime /*now*/) {
  // Control-plane traffic is prioritized past the data byte limit, the way
  // deployed routers protect routing-protocol traffic (the Fatih prototype
  // ran validator exchanges over TCP for the same reason, §5.3.1). A
  // malicious router can still discard control traffic deliberately.
  if (!p.is_control() && bytes_ + p.size_bytes > limit_) return EnqueueResult::kDroppedFull;
  bytes_ += p.size_bytes;
  q_.push_back(p);
  return EnqueueResult::kAccepted;
}

std::optional<Packet> DropTailQueue::dequeue(util::SimTime /*now*/) {
  if (q_.empty()) return std::nullopt;
  Packet p = std::move(q_.front());
  q_.pop_front();
  bytes_ -= p.size_bytes;
  return p;
}

}  // namespace fatih::sim

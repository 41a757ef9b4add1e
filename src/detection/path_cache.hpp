// Versioned stable-state path oracle.
//
// The detection protocols assume knowledge of the path a packet will take
// in the stable state (dissertation §4.1: deterministic forwarding lets a
// router "predict the path that a packet will take ... based on its own
// routing tables"). Under topology churn that snapshot goes stale, so the
// cache keeps a sequence of *epochs*: each epoch pairs a RoutingTables
// snapshot with the time it became authoritative and a backdated
// `unstable_from` marking when the transient that produced it may have
// begun (physical failure happens before the SPF that reacts to it).
//
// The un-suffixed accessors (path, next_hop_after, tables) answer from the
// latest epoch and keep their pre-churn semantics; the *_at variants
// answer as of a given time, and path_stable / changed_during are the
// predicates the engines use to invalidate rounds that straddle a
// reconvergence instead of raising false suspicions.
#pragma once

#include <deque>
#include <map>
#include <memory>

#include "routing/spf.hpp"
#include "util/time.hpp"

namespace fatih::detection {

class PathCache {
 public:
  explicit PathCache(std::shared_ptr<const routing::RoutingTables> tables) {
    epochs_.push_back(Epoch{util::SimTime::origin(), util::SimTime::origin(), std::move(tables), {}});
  }

  /// The stable path src -> dst in the *latest* epoch (empty when
  /// unreachable). The reference is stable for the cache's lifetime.
  [[nodiscard]] const routing::Path& path(util::NodeId src, util::NodeId dst) const {
    return lookup(epochs_.back(), src, dst);
  }

  /// Next hop after `at` on the latest stable path src -> dst.
  [[nodiscard]] util::NodeId next_hop_after(util::NodeId src, util::NodeId dst,
                                            util::NodeId at) const {
    return hop_after(path(src, dst), at);
  }

  [[nodiscard]] const routing::RoutingTables& tables() const { return *epochs_.back().tables; }

  // ------------------------------------------------------------- versioning

  /// Appends a new epoch: `tables` are authoritative from `start`;
  /// the transient that led to them is assumed to have begun no earlier
  /// than `unstable_from` (<= start).
  void push_epoch(std::shared_ptr<const routing::RoutingTables> tables, util::SimTime start,
                  util::SimTime unstable_from) {
    if (unstable_from > start) unstable_from = start;
    if (unstable_from < epochs_.back().start) unstable_from = epochs_.back().start;
    epochs_.push_back(Epoch{start, unstable_from, std::move(tables), {}});
  }

  /// Widens the latest transition window: another router installed the
  /// same logical tables at `until` (staggered SPF), so the network is not
  /// settled before then. No-op on the initial epoch.
  void extend_transition(util::SimTime until) {
    if (epochs_.size() < 2) return;
    if (until > epochs_.back().start) epochs_.back().start = until;
  }

  /// The path src -> dst as of time `when`.
  [[nodiscard]] const routing::Path& path_at(util::NodeId src, util::NodeId dst,
                                             util::SimTime when) const {
    return lookup(epoch_at(when), src, dst);
  }

  [[nodiscard]] util::NodeId next_hop_after_at(util::NodeId src, util::NodeId dst,
                                               util::NodeId at, util::SimTime when) const {
    return hop_after(path_at(src, dst, when), at);
  }

  /// True iff the forwarding path src -> dst was one settled path over the
  /// whole of [begin, end): no epoch transition whose window
  /// [unstable_from, start) intersects the interval changed it.
  [[nodiscard]] bool path_stable(util::NodeId src, util::NodeId dst, util::SimTime begin,
                                 util::SimTime end) const {
    for (std::size_t i = 1; i < epochs_.size(); ++i) {
      if (!window_intersects(i, begin, end)) continue;
      if (lookup(epochs_[i - 1], src, dst) != lookup(epochs_[i], src, dst)) return false;
    }
    return true;
  }

  /// True iff *any* epoch transition window intersects [begin, end) —
  /// i.e. the routing fabric was (possibly) in flux somewhere during the
  /// interval, whatever the pair.
  [[nodiscard]] bool changed_during(util::SimTime begin, util::SimTime end) const {
    for (std::size_t i = 1; i < epochs_.size(); ++i) {
      if (window_intersects(i, begin, end)) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t epoch_count() const { return epochs_.size(); }

 private:
  struct Epoch {
    util::SimTime start;          ///< tables authoritative from here on
    util::SimTime unstable_from;  ///< transient may have begun this early
    std::shared_ptr<const routing::RoutingTables> tables;
    // std::map, not a hash map or FlatMap: path() hands out references that
    // must stay valid for the cache's lifetime, so the memo needs node
    // stability across later inserts — and its iteration order (if anyone
    // ever walks it) is key order, not hash order.
    mutable std::map<std::uint64_t, routing::Path> memo;
  };

  [[nodiscard]] const Epoch& epoch_at(util::SimTime when) const {
    for (std::size_t i = epochs_.size(); i-- > 1;) {
      if (epochs_[i].start <= when) return epochs_[i];
    }
    return epochs_.front();
  }

  /// Does transition i's window [unstable_from, start) intersect
  /// [begin, end)? Degenerate windows (instant cutover) count when they
  /// fall inside the interval.
  [[nodiscard]] bool window_intersects(std::size_t i, util::SimTime begin,
                                       util::SimTime end) const {
    const auto w_begin = epochs_[i].unstable_from;
    const auto w_end = epochs_[i].start;
    if (w_begin == w_end) return begin <= w_begin && w_begin < end;
    return w_begin < end && begin < w_end;
  }

  static const routing::Path& lookup(const Epoch& e, util::NodeId src, util::NodeId dst) {
    const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
    auto it = e.memo.find(key);
    if (it == e.memo.end()) {
      it = e.memo.emplace(key, e.tables->path(src, dst)).first;
    }
    return it->second;
  }

  static util::NodeId hop_after(const routing::Path& p, util::NodeId at) {
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      if (p[i] == at) return p[i + 1];
    }
    return util::kInvalidNode;
  }

  std::deque<Epoch> epochs_;
};

}  // namespace fatih::detection

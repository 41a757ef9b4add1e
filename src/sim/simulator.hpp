// Discrete-event simulation engine.
//
// A single-threaded event loop ordered by simulated time. Ties are broken
// by insertion order (FIFO), which keeps runs deterministic. Everything in
// the network model — link transmissions, router processing, protocol
// round timers, TCP retransmission timers — is an event here.
//
// The engine is built for throughput: event records live in a pooled slab
// (chunked, so records never move) with free-list reuse, callbacks are
// stored inline in the record when they fit (they almost always do — the
// largest common capture is a Packet plus a pointer), and the pending
// queue holds lightweight packed (time, seq|slot) entries in two tiers: a
// sorted near-horizon vector consumed through a cursor (the common case —
// hot-path events are scheduled microseconds out) backed by a 4-ary min-
// heap for everything beyond the horizon. Cancellation is O(1):
// it bumps the slot's generation and leaves a stale heap entry behind,
// which dispatch skips and a lazy sweep compacts away once stale entries
// outnumber live ones — so cancel-heavy workloads (TCP timers re-armed on
// every ack) cannot grow the heap without bound. In steady state the
// schedule/dispatch cycle performs zero heap allocations.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/time.hpp"

namespace fatih::sim {

class ShardLane;  // cross-PoP handoff buffer (src/sim/shard.hpp)

/// Handle used to cancel a scheduled event. Encodes (generation << 32) |
/// slot; generations start at 1, so 0 is never a live id and a
/// default-initialized handle is always safe to cancel.
using EventId = std::uint64_t;

/// The event loop. Not copyable; one per experiment.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current simulated time (time of the event being processed, or of the
  /// last processed event between dispatches).
  [[nodiscard]] util::SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must be >= now(); requests for
  /// the past run "now" — simulated time never moves backward). Accepts
  /// any void() callable; callables up to kInlineCallbackBytes are stored
  /// inline in the pooled event record, larger ones spill to the heap.
  template <typename F>
  EventId schedule_at(util::SimTime t, F&& fn) {
    if (t < now_) t = now_;
    const std::uint32_t slot = acquire_slot();
    EventRecord& rec = record(slot);
    rec.at = t;
    rec.seq = next_seq_++;
    rec.armed = true;
    assert(rec.seq < kMaxSeq);
    install_callback(rec, std::forward<F>(fn));
    push_entry(HeapEntry{t, pack_key(rec.seq, slot)});
    if (++in_use_ > high_water_) high_water_ = in_use_;
    return (static_cast<EventId>(rec.generation) << 32) | slot;
  }

  /// Schedules `fn` after `d` from now.
  template <typename F>
  EventId schedule_in(util::Duration d, F&& fn) {
    return schedule_at(now_ + d, std::forward<F>(fn));
  }

  /// Constructs callable `D` from `args` DIRECTLY in the event record —
  /// no temporary, no move. A lambda passed to schedule_at is built on the
  /// caller's stack and then moved into the record; for the forwarding
  /// hot path that move is a Packet-sized memcpy per event, twice per
  /// hop. Named functor types (node.cpp's transmit/processing events) use
  /// this to skip it. `D` must fit the inline buffer; that is a
  /// compile-time property of the type, so no heap spill branch either.
  template <typename D, typename... Args>
  EventId schedule_emplace_in(util::Duration d, Args&&... args) {
    static_assert(sizeof(D) <= kInlineCallbackBytes &&
                      alignof(D) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<D>,
                  "emplaced event callables must fit the inline record buffer");
    util::SimTime t = now_ + d;
    if (t < now_) t = now_;  // same past-clamp as schedule_at
    const std::uint32_t slot = acquire_slot();
    EventRecord& rec = record(slot);
    rec.at = t;
    rec.seq = next_seq_++;
    rec.armed = true;
    assert(rec.seq < kMaxSeq);
    ::new (static_cast<void*>(rec.inline_buf)) D(std::forward<Args>(args)...);
    rec.vt = &kInlineVTable<D>;
    rec.heap = nullptr;
    push_entry(HeapEntry{t, pack_key(rec.seq, slot)});
    if (++in_use_ > high_water_) high_water_ = in_use_;
    return (static_cast<EventId>(rec.generation) << 32) | slot;
  }

  /// Cancels a pending event; no-op if it already ran or was cancelled.
  void cancel(EventId id);

  /// Reschedules the event currently being fired — callable and storage
  /// preserved, no destroy / free / re-install cycle. Valid only from
  /// inside an event callback, applies to that callback's own event, and
  /// may be called at most once per firing. The new event gets the next
  /// seq, exactly as a fresh schedule_in from the same point would: the
  /// dispatch order is indistinguishable from schedule_in, only the slot
  /// churn disappears. This is the backbone of the multi-stage hot-path
  /// callbacks in node.cpp (serialization -> propagation) and the
  /// self-rescheduling traffic sources.
  EventId rearm_current(util::Duration d) {
    const std::uint32_t slot = firing_slot_;
    EventRecord& rec = record(slot);
    rec.at = now_ + d;
    rec.seq = next_seq_++;
    rec.armed = true;  // tells the firing wrapper to skip destroy/free
    assert(rec.seq < kMaxSeq);
    push_entry(HeapEntry{rec.at, pack_key(rec.seq, slot)});
    return (static_cast<EventId>(rec.generation) << 32) | slot;
  }

  /// Runs events until the queue empties or `limit` is passed; leaves
  /// now() at min(limit, last event time). Events scheduled exactly at
  /// `limit` are executed.
  void run_until(util::SimTime limit);

  /// Runs until the event queue is empty.
  void run();

  /// Number of events dispatched so far (for tests / sanity checks).
  [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }

  /// True when any pending entry remains in either tier. Cancelled
  /// tombstones count: the sharded window scheduler only needs a
  /// conservative lower bound on the next dispatch time, and tombstone
  /// placement is itself deterministic, so including them keeps the
  /// window grid identical at every worker count.
  [[nodiscard]] bool has_pending() const {
    return near_head_ < near_.size() || !heap_.empty();
  }
  /// Earliest pending entry time (tombstones included, same conservative
  /// contract as has_pending). O(1): the near tier is sorted and always
  /// earlier than the far heap. Requires has_pending().
  [[nodiscard]] util::SimTime next_event_time() const {
    return near_head_ < near_.size() ? near_[near_head_].at : heap_.front().at;
  }

  /// Cross-PoP handoff lane for the sharded engine; null in the classic
  /// single-simulator engine, which changes nothing on the hot path beyond
  /// one pointer test on cross-PoP sends and control deliveries.
  void set_shard_lane(ShardLane* lane) { shard_lane_ = lane; }
  [[nodiscard]] ShardLane* shard_lane() const { return shard_lane_; }

  /// Order-independent FNV fingerprint of the live pending queue: every
  /// armed (time, seq|slot) entry across both tiers, folded in (at, key)
  /// order. Two simulators that will dispatch the same future events —
  /// regardless of near/far placement or stale-entry debris — fingerprint
  /// identically; checkpoint digests use this to pin the event-queue
  /// state without serializing callables.
  [[nodiscard]] std::uint64_t pending_fingerprint() const;

  /// Observability attach point. Every layer reaches the simulator, so
  /// the trace sink hangs here; null = disabled at runtime (instrumented
  /// call sites pay one load + branch). The sink must outlive the run.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }
  [[nodiscard]] obs::TraceSink* trace() const { return trace_; }

  /// Callables at most this large (and max_align_t-aligned) are stored in
  /// the record itself. Sized to fit a lambda capturing a Packet plus a
  /// couple of words, the hot-path shape in node.cpp.
  static constexpr std::size_t kInlineCallbackBytes = 120;

  /// Pool and heap introspection: the allocation-freedom and bounded-
  /// memory guarantees are asserted against these in tests and benches.
  struct PoolStats {
    std::size_t slots_in_use = 0;      ///< currently scheduled events
    std::size_t slots_high_water = 0;  ///< max simultaneous scheduled events
    std::size_t slab_slots = 0;        ///< records ever materialized (pool capacity)
    std::size_t heap_entries = 0;      ///< live + stale entries pending (near + far)
    std::size_t heap_capacity = 0;     ///< reserved queue storage (near + far)
    std::uint64_t heap_sweeps = 0;     ///< lazy compactions of stale entries
    std::uint64_t callback_heap_allocs = 0;  ///< callables that spilled to the heap
  };
  [[nodiscard]] PoolStats pool_stats() const {
    return PoolStats{in_use_,
                     high_water_,
                     slot_count_,
                     heap_.size() + (near_.size() - near_head_),
                     heap_.capacity() + near_.capacity(),
                     sweeps_,
                     cb_heap_allocs_};
  }

 private:
  // Manual dispatch so a record can hold any callable without std::function
  // overhead. `fire` invokes the callable IN PLACE: the record is marked
  // dead first (armed cleared, generation bumped, so a cancel from inside
  // the callback is a no-op) but its slot joins the free list only after
  // the invocation returns. A callback that schedules therefore picks a
  // different slot and can never clobber its own captures mid-flight —
  // and the hot path skips relocating the callable (a Packet-sized move
  // per event) entirely. `destroy` is the cancellation path.
  struct CallbackVTable {
    void (*fire)(Simulator& sim, std::uint32_t slot, void* p);
    void (*destroy)(void* p);  ///< inline: dtor; heap: delete
  };

  template <typename D>
  static void fire_inline(Simulator& sim, std::uint32_t slot, void* p) {
    sim.begin_fire(slot);
    D* fn = static_cast<D*>(p);
    (*fn)();
    if (sim.record(slot).armed) return;  // rearm_current: callable lives on
    fn->~D();
    sim.finish_fire(slot);
  }
  template <typename D>
  static void fire_heap(Simulator& sim, std::uint32_t slot, void* p) {
    sim.begin_fire(slot);
    D* fn = static_cast<D*>(p);
    (*fn)();
    if (sim.record(slot).armed) return;  // rearm_current: callable lives on
    delete fn;
    sim.finish_fire(slot);
  }

  template <typename D>
  static constexpr CallbackVTable kInlineVTable{
      &fire_inline<D>,
      [](void* p) { static_cast<D*>(p)->~D(); },
  };

  template <typename D>
  static constexpr CallbackVTable kHeapVTable{
      &fire_heap<D>,
      [](void* p) { delete static_cast<D*>(p); },
  };

  struct EventRecord {
    util::SimTime at;
    std::uint64_t seq = 0;           ///< FIFO tie-break; also staleness check
    std::uint32_t generation = 1;    ///< bumped on release; validates EventIds
    std::uint32_t next_free = 0;     ///< free-list link
    bool armed = false;              ///< scheduled and not yet fired/cancelled
    const CallbackVTable* vt = nullptr;
    void* heap = nullptr;            ///< non-null when the callable spilled
    alignas(std::max_align_t) unsigned char inline_buf[kInlineCallbackBytes];
  };

  /// 16 bytes so four children of the 4-ary heap share one cache line:
  /// `key` packs (seq << kSlotBits) | slot. Seqs are unique, so ordering
  /// by key equals ordering by seq — the tie-break is unchanged — and the
  /// slot rides along for free. 24 slot bits cap the pool at 16.7M
  /// concurrent events (a ~3 GB slab, far past any workload here); 40 seq
  /// bits cap a run at ~10^12 scheduled events, asserted in schedule_at.
  struct HeapEntry {
    util::SimTime at;
    std::uint64_t key;
  };
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);
  static std::uint64_t pack_key(std::uint64_t seq, std::uint32_t slot) {
    return (seq << kSlotBits) | slot;
  }
  /// Dispatch order: time, then FIFO seq — same as the seed engine.
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.key < b.key;
  }

  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;
  static constexpr std::size_t kChunkSlots = 256;

  [[nodiscard]] EventRecord& record(std::uint32_t slot) {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots];
  }
  [[nodiscard]] const EventRecord& record(std::uint32_t slot) const {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots];
  }

  template <typename F>
  void install_callback(EventRecord& rec, F&& fn) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_v<D&>, "event callback must be callable with no args");
    if constexpr (sizeof(D) <= kInlineCallbackBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(rec.inline_buf)) D(std::forward<F>(fn));
      rec.vt = &kInlineVTable<D>;
      rec.heap = nullptr;
    } else {
      rec.heap = new D(std::forward<F>(fn));
      rec.vt = &kHeapVTable<D>;
      ++cb_heap_allocs_;
    }
  }

  // Hot-path helpers are inline (no LTO in the default build): one slab
  // grow aside, schedule/dispatch must not leave the translation unit.
  [[nodiscard]] std::uint32_t acquire_slot() {
    if (free_head_ == kNilSlot) grow_slab();
    const std::uint32_t slot = free_head_;
    free_head_ = record(slot).next_free;
    return slot;
  }
  void release_slot(std::uint32_t slot) {
    begin_fire(slot);
    finish_fire(slot);
  }
  /// First half of dispatch: the record is dead to cancels and EventIds,
  /// but its storage (holding the executing callable) is not reusable yet.
  void begin_fire(std::uint32_t slot) {
    EventRecord& rec = record(slot);
    rec.armed = false;
    ++rec.generation;  // invalidates any outstanding EventId for this slot
  }
  /// Second half: the callable is destroyed, the slot rejoins the pool.
  void finish_fire(std::uint32_t slot) {
    EventRecord& rec = record(slot);
    rec.vt = nullptr;
    rec.heap = nullptr;
    rec.next_free = free_head_;
    free_head_ = slot;
    --in_use_;
  }
  // The pending queue is split in two by a moving time horizon. Entries
  // due before `near_horizon_` live in `near_`, a sorted vector consumed
  // through a cursor: dispatch is a bounds check plus an increment, and
  // insertion is a binary search over the short live span. Entries at or
  // past the horizon go to the far heap. The forwarding hot path schedules
  // almost exclusively a few microseconds out — inside the horizon — so
  // those events never touch the heap at all. Correctness: the horizon
  // only moves when `near_` is exhausted, far entries are always >= the
  // horizon, and near inserts land in (at, key) order, so the global
  // dispatch order is the same (at, seq) total order as a single heap.
  void push_entry(HeapEntry e) {
    if (e.at < near_horizon_) {
      // Reclaim the consumed prefix before it dominates the vector; the
      // memmove is amortized over the >=1024 events already dispatched.
      if (near_head_ >= 1024 && near_head_ * 2 >= near_.size()) {
        near_.erase(near_.begin(), near_.begin() + static_cast<std::ptrdiff_t>(near_head_));
        near_head_ = 0;
      }
      near_.insert(std::upper_bound(near_.begin() + static_cast<std::ptrdiff_t>(near_head_),
                                    near_.end(), e, before),
                   e);
    } else {
      heap_push(e);
    }
  }
  /// Refills `near_` from the far heap when the cursor runs off the end.
  /// Returns false when no pending entries remain anywhere.
  bool advance_near();

  // The far queue is a hand-rolled 4-ary min-heap: half the sift
  // depth of a binary heap and all four children on one pair of cache
  // lines, which measures noticeably faster than std::push_heap/pop_heap
  // once hundreds of events are pending.
  void heap_push(HeapEntry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }
  /// Re-seats `v` starting at hole `i` (used by pop and the sweep rebuild).
  void heap_sift_down(std::size_t i, HeapEntry v) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], v)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = v;
  }
  /// Pop uses Floyd's bottom-up variant: walk the hole down along min
  /// children (children-only compares), then bubble the displaced last
  /// element back up. The last element of a min-heap almost always belongs
  /// near the leaves, so the bubble-up usually takes zero or one steps —
  /// cheaper than comparing it at every level on the way down. The pop
  /// ORDER is unchanged either way: it is fully determined by the (at,
  /// seq) total order, not by the internal array arrangement.
  void heap_pop() {
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!before(last, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = last;
  }

  void grow_slab();
  void destroy_callback(EventRecord& rec);
  void maybe_sweep();

  util::SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  /// Slot of the event currently being fired (rearm_current target); only
  /// run_until writes it, so nested schedules/cancels cannot clobber it.
  std::uint32_t firing_slot_ = kNilSlot;

  obs::TraceSink* trace_ = nullptr;
  ShardLane* shard_lane_ = nullptr;

  std::vector<std::unique_ptr<EventRecord[]>> chunks_;
  std::uint32_t slot_count_ = 0;   ///< slots materialized across all chunks
  std::uint32_t free_head_ = kNilSlot;
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t cb_heap_allocs_ = 0;

  std::vector<HeapEntry> heap_;
  std::size_t stale_ = 0;   ///< cancelled entries still parked in near_/heap_
  std::uint64_t sweeps_ = 0;

  /// Near-horizon staging: entries due before `near_horizon_` sorted by
  /// (at, key), consumed from `near_head_`. The window adapts so a refill
  /// migrates a small batch — wide enough to catch hot-path schedules,
  /// narrow enough that a migration stays cheap.
  std::vector<HeapEntry> near_;
  std::size_t near_head_ = 0;
  util::SimTime near_horizon_;          ///< default origin(): everything far until first run
  std::int64_t near_window_ns_ = 128 * 1000;
};

}  // namespace fatih::sim

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace fatih::sim {
namespace {

using util::Duration;
using util::SimTime;

TEST(Simulator, StartsAtOrigin) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::origin());
}

TEST(Simulator, DispatchesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::from_seconds(3), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::from_seconds(1), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::from_seconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  const auto t = SimTime::from_seconds(1);
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NowAdvancesDuringDispatch) {
  Simulator sim;
  SimTime seen;
  sim.schedule_at(SimTime::from_seconds(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::from_seconds(5));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  SimTime seen;
  sim.schedule_at(SimTime::from_seconds(2), [&] {
    sim.schedule_in(Duration::seconds(3), [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, SimTime::from_seconds(5));
}

TEST(Simulator, CancelPreventsDispatch) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(SimTime::from_seconds(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterDispatchIsNoop) {
  Simulator sim;
  int count = 0;
  const EventId id = sim.schedule_at(SimTime::from_seconds(1), [&] { ++count; });
  sim.run();
  sim.cancel(id);  // must not crash or corrupt
  EXPECT_EQ(count, 1);
}

TEST(Simulator, RunUntilStopsAtLimitInclusive) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::from_seconds(1), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::from_seconds(2), [&] { order.push_back(2); });
  sim.schedule_at(SimTime::from_seconds(3), [&] { order.push_back(3); });
  sim.run_until(SimTime::from_seconds(2));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), SimTime::from_seconds(2));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_in(Duration::millis(1), recurse);
  };
  sim.schedule_at(SimTime::origin(), recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.events_dispatched(), 100U);
}

TEST(Simulator, PastTimeRequestsRunNow) {
  // schedule_at clamps requests for the past to "now": simulated time
  // never moves backward (matters for engines commissioned mid-run).
  Simulator sim;
  std::vector<double> fired_at;
  sim.schedule_at(SimTime::from_seconds(5), [&] {
    sim.schedule_at(SimTime::from_seconds(1), [&] { fired_at.push_back(sim.now().seconds()); });
  });
  sim.schedule_at(SimTime::from_seconds(7), [&] { fired_at.push_back(sim.now().seconds()); });
  sim.run();
  ASSERT_EQ(fired_at.size(), 2U);
  EXPECT_DOUBLE_EQ(fired_at[0], 5.0);  // clamped, not time-travelled
  EXPECT_DOUBLE_EQ(fired_at[1], 7.0);
}

TEST(Simulator, RunUntilIdlesAtLimitWithEmptyQueue) {
  Simulator sim;
  sim.run_until(SimTime::from_seconds(10));
  EXPECT_EQ(sim.now(), SimTime::from_seconds(10));
}

TEST(Simulator, StaleIdAfterSlotReuseIsNoop) {
  // Cancelling releases the slot; the very next schedule reuses it (LIFO
  // free list). The old handle's generation is stale and must not touch
  // the new occupant.
  Simulator sim;
  bool first = false;
  bool second = false;
  const EventId a = sim.schedule_at(SimTime::from_seconds(1), [&] { first = true; });
  sim.cancel(a);
  const EventId b = sim.schedule_at(SimTime::from_seconds(1), [&] { second = true; });
  EXPECT_NE(a, b);
  sim.cancel(a);  // stale generation: must not cancel b
  sim.cancel(a);  // double-cancel: still a no-op
  sim.cancel(0);  // default-initialized handle is always safe
  sim.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

// --- Pool-stat guarantees -------------------------------------------------
//
// The allocation-freedom and bounded-memory claims of the pooled engine are
// asserted here against Simulator::pool_stats(), not inferred from timing.

TEST(SimulatorPool, MillionScheduleCancelChurnIsBounded) {
  // Regression for the seed engine, where cancel() only marked a tombstone:
  // the callback registry and the time-ordered queue both grew with every
  // schedule/cancel pair until the run drained. One million churned events
  // must reuse a handful of pooled slots and a lazily-swept heap.
  Simulator sim;
  constexpr int kEvents = 1'000'000;
  int fired = 0;
  for (int i = 0; i < kEvents; ++i) {
    const EventId id =
        sim.schedule_at(SimTime::from_seconds(1 + i % 7), [&] { ++fired; });
    sim.cancel(id);
  }
  const auto stats = sim.pool_stats();
  EXPECT_EQ(stats.slots_in_use, 0U);
  EXPECT_EQ(stats.slots_high_water, 1U);         // never more than one live
  EXPECT_LE(stats.slab_slots, 256U);             // a single slab chunk
  EXPECT_LE(stats.heap_entries, 128U);           // stale entries swept, not hoarded
  EXPECT_GT(stats.heap_sweeps, 0U);
  EXPECT_EQ(stats.callback_heap_allocs, 0U);
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_dispatched(), 0U);
}

TEST(SimulatorPool, CancelRearmTimerChurnIsBounded) {
  // The RTO shape: a fleet of pending timers, each cancelled and re-armed
  // over and over (one cancel+schedule per ack). The heap may carry stale
  // entries between sweeps but must stay within a small multiple of the
  // live count.
  Simulator sim;
  constexpr std::size_t kTimers = 512;
  constexpr int kChurn = 200'000;
  std::vector<EventId> ids(kTimers);
  for (std::size_t t = 0; t < kTimers; ++t) {
    ids[t] = sim.schedule_at(SimTime::from_seconds(100 + t), [] {});
  }
  for (int i = 0; i < kChurn; ++i) {
    const std::size_t t = static_cast<std::size_t>(i) % kTimers;
    sim.cancel(ids[t]);
    ids[t] = sim.schedule_at(SimTime::from_seconds(100 + t + i % 13), [] {});
  }
  const auto stats = sim.pool_stats();
  EXPECT_EQ(stats.slots_in_use, kTimers);
  EXPECT_LE(stats.slots_high_water, kTimers + 1);
  EXPECT_LE(stats.slab_slots, kTimers + 256);
  // Sweep policy: compaction runs once stale entries outnumber live ones,
  // so the heap never exceeds 2x live plus the pre-trigger slack.
  EXPECT_LE(stats.heap_entries, 2 * kTimers + 64);
  EXPECT_EQ(stats.callback_heap_allocs, 0U);
}

TEST(SimulatorPool, AckRearmedRtoChurnDispatchesClosedFormCounts) {
  // TCP-retransmit shape: every ack cancels its flow's pending 200 ms RTO,
  // re-arms it, then schedules the flow's next ack. Each flow keeps one ack
  // in flight, so the shared budget overshoots by kFlows - 1, and only each
  // flow's last RTO is never cancelled and fires.
  Simulator sim;
  constexpr std::size_t kFlows = 64;
  constexpr std::uint64_t kAckBudget = 25'000;
  std::uint64_t acks = 0;
  struct Flow {
    Simulator* sim;
    std::uint64_t* acks;
    Duration ack_period;
    EventId rto{};
    bool rto_armed = false;
    void on_ack() {
      if (rto_armed) sim->cancel(rto);
      rto = sim->schedule_in(Duration::millis(200), [this] { rto_armed = false; });
      rto_armed = true;
      if (++*acks >= kAckBudget) return;
      sim->schedule_in(ack_period, [this] { on_ack(); });
    }
  };
  std::vector<Flow> flows;
  for (std::size_t i = 0; i < kFlows; ++i) {
    flows.push_back(Flow{&sim, &acks, Duration::micros(50 + static_cast<std::int64_t>(i))});
  }
  for (std::size_t i = 0; i < kFlows; ++i) {
    sim.schedule_at(SimTime::from_nanos(static_cast<std::int64_t>(i)),
                    [&f = flows[i]] { f.on_ack(); });
  }
  sim.run();
  EXPECT_EQ(acks, 25'063U);                     // kAckBudget + kFlows - 1
  EXPECT_EQ(sim.events_dispatched(), 25'127U);  // acks + one last RTO per flow
}

namespace {
/// Self-rescheduling chain step; a named functor so it can re-schedule a
/// copy of itself (and small enough to stay in the inline buffer).
struct ChainStep {
  Simulator* sim;
  int* remaining;
  void operator()() const {
    if (--*remaining > 0) sim->schedule_in(Duration::micros(10), *this);
  }
};
}  // namespace

TEST(SimulatorPool, SteadyStateDispatchAllocatesNothing) {
  // After warm-up, sustained schedule/dispatch churn must not grow the
  // slab, spill any callback to the heap, or re-reserve heap storage:
  // every event reuses a pooled record and the existing heap capacity.
  Simulator sim;
  constexpr int kChains = 64;
  int remaining = 300'000;
  for (int c = 0; c < kChains; ++c) {
    sim.schedule_at(SimTime::origin() + Duration::micros(c), ChainStep{&sim, &remaining});
  }
  sim.run_until(SimTime::from_seconds(0.01));  // warm-up: slab + heap sized
  const auto warm = sim.pool_stats();
  EXPECT_GT(sim.events_dispatched(), 0U);
  sim.run();
  const auto done = sim.pool_stats();
  // Every chain keeps exactly one event pending. The chain that takes the
  // shared budget to zero stops; each of the other kChains - 1 fires its
  // pending step once more, so the budget ends at -(kChains - 1) and
  // dispatch counts those extra steps on top of the budget.
  EXPECT_EQ(remaining, -(kChains - 1));
  EXPECT_EQ(sim.events_dispatched(), 300'000U + kChains - 1);
  EXPECT_EQ(done.slab_slots, warm.slab_slots);
  EXPECT_EQ(done.heap_capacity, warm.heap_capacity);
  EXPECT_EQ(done.callback_heap_allocs, warm.callback_heap_allocs);
  EXPECT_EQ(done.callback_heap_allocs, 0U);
}

TEST(SimulatorPool, OversizedCallbackSpillsAndStillFires) {
  // Callables beyond kInlineCallbackBytes take the heap path; the stat
  // records the spill and the event must still dispatch correctly.
  Simulator sim;
  struct Big {
    unsigned char pad[Simulator::kInlineCallbackBytes + 64] = {};
    int* hits;
  };
  int hits = 0;
  Big big;
  big.hits = &hits;
  sim.schedule_at(SimTime::from_seconds(1), [big] { ++*big.hits; });
  EXPECT_EQ(sim.pool_stats().callback_heap_allocs, 1U);
  sim.run();
  EXPECT_EQ(hits, 1);
}

TEST(SimulatorPool, CancelledSpilledCallbackIsFreed) {
  // The cancellation path must destroy a heap-spilled callable too (the
  // shared_ptr count proves the destructor ran; ASan would flag the leak).
  Simulator sim;
  auto token = std::make_shared<int>(7);
  struct Big {
    unsigned char pad[Simulator::kInlineCallbackBytes + 64] = {};
    std::shared_ptr<int> token;
  };
  Big big;
  big.token = token;
  const EventId id =
      sim.schedule_at(SimTime::from_seconds(1), [big = std::move(big)] { (void)big; });
  EXPECT_EQ(token.use_count(), 2);
  sim.cancel(id);
  EXPECT_EQ(token.use_count(), 1);
  sim.run();
}

}  // namespace
}  // namespace fatih::sim

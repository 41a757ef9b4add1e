// The observability acceptance test: two identically-seeded runs of the
// churn scenario (all three detection engines, an attacker, a link flap
// on a live link-state fabric) must serialize byte-identical traces. This
// is the property that makes the trace sink a
// legitimate test/bench instrument — if observation perturbed the run or
// recorded nondeterministically, figure regeneration and trace-based
// assertions would be meaningless.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "attacks/attacks.hpp"
#include "detection/chi.hpp"
#include "detection/pi2.hpp"
#include "detection/pik2.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "tests/detection/churn_net.hpp"
#include "tests/detection/trace_counts.hpp"

#if FATIH_TRACE

namespace fatih::detection {
namespace {

using util::Duration;
using util::SimTime;

constexpr std::int64_t kRounds = 14;
constexpr double kEndS = 18.0;

/// Everything one run leaves behind, serialized.
struct RunRecord {
  std::string trace_jsonl;
  std::uint64_t trace_recorded = 0;
  DetectorCounters pi2_counters;
  DetectorCounters pik2_counters;
  DetectorCounters chi_counters;
  ReliableChannel::Stats reliable;
};

RunRecord run_once(std::uint64_t seed) {
  obs::TraceSink sink;

  testing::ChurnNet n(seed);
  n.net.sim().set_trace(&sink);
  n.add_cbr(0, 2, /*flow=*/1, /*pps=*/400.0, /*start=*/2.05, /*stop=*/16.5);

  attacks::FlowMatch match;
  match.flow_ids = {1};
  n.net.router(1).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 0.3, SimTime::from_seconds(5.5), 99));

  Pi2Config p2;
  p2.clock = testing::ChurnNet::clock();
  p2.k = 1;
  p2.collect_settle = Duration::millis(150);
  p2.evaluate_settle = Duration::millis(300);
  p2.policy = TvPolicy::kContentOrder;
  p2.rounds = kRounds;
  auto pi2 = std::make_unique<Pi2Engine>(n.net, n.keys, *n.paths,
                                         testing::ChurnNet::terminals(), p2);

  Pik2Config pk;
  pk.clock = testing::ChurnNet::clock();
  pk.k = 1;
  pk.collect_settle = Duration::millis(150);
  pk.exchange_timeout = Duration::millis(500);
  pk.policy = TvPolicy::kContentOrder;
  pk.rounds = kRounds;
  pk.reliable.enabled = true;
  auto pik2 = std::make_unique<Pik2Engine>(n.net, n.keys, *n.paths,
                                           testing::ChurnNet::terminals(), pk);

  ChiConfig cc;
  cc.clock = testing::ChurnNet::clock();
  cc.settle = Duration::millis(400);
  cc.grace = Duration::millis(200);
  cc.learning_rounds = 3;
  cc.rounds = kRounds;
  auto chi = std::make_unique<QueueValidator>(n.net, n.keys, *n.paths,
                                              /*owner=*/1, /*peer=*/2, cc);

  testing::ChurnNet::flap_schedule().arm(n.net);
  pi2->start();
  pik2->start();
  chi->start();
  sink.annotate(SimTime::origin(), "COMMISSION");
  n.net.sim().run_until(SimTime::from_seconds(kEndS));

  RunRecord rec;
  rec.trace_jsonl = sink.to_jsonl();
  rec.trace_recorded = sink.recorded();
  rec.pi2_counters = pi2->counters();
  rec.pik2_counters = pik2->counters();
  rec.chi_counters = chi->counters();
  rec.reliable = pik2->channel()->stats();
  return rec;
}

/// The engine's introspection counters equal its own trace events, and
/// the flap invalidated some of its rounds.
void expect_traced(const obs::TraceSink& sink, obs::TraceSource source,
                   const DetectorCounters& c) {
  testing::expect_counters_traced(sink, source, c);
  EXPECT_GT(c.rounds_opened, 0U);
  EXPECT_GT(c.rounds_invalidated, 0U);
}

void expect_counters_eq(const DetectorCounters& x, const DetectorCounters& y) {
  EXPECT_EQ(x.rounds_opened, y.rounds_opened);
  EXPECT_EQ(x.rounds_evaluated, y.rounds_evaluated);
  EXPECT_EQ(x.rounds_invalidated, y.rounds_invalidated);
  EXPECT_EQ(x.suspicions, y.suspicions);
}

TEST(TraceDeterminism, IdenticalSeedsProduceByteIdenticalOutput) {
  const RunRecord r1 = run_once(/*seed=*/7);
  const RunRecord r2 = run_once(/*seed=*/7);

  // Non-vacuous: the scenario actually produced a substantial trace.
  EXPECT_GT(r1.trace_recorded, 100U);

  // The headline property.
  EXPECT_EQ(r1.trace_jsonl, r2.trace_jsonl);
  EXPECT_EQ(r1.trace_recorded, r2.trace_recorded);
  expect_counters_eq(r1.pi2_counters, r2.pi2_counters);
  expect_counters_eq(r1.pik2_counters, r2.pik2_counters);
  expect_counters_eq(r1.chi_counters, r2.chi_counters);
}

TEST(TraceDeterminism, DifferentSeedsDiverge) {
  // The converse guard: if every seed serialized identically, the
  // determinism assertion above would be vacuous.
  const RunRecord r1 = run_once(/*seed=*/7);
  const RunRecord r2 = run_once(/*seed=*/8);
  EXPECT_NE(r1.trace_jsonl, r2.trace_jsonl);
}

TEST(TraceDeterminism, EveryInstrumentedLayerAppearsInTheTrace) {
  // Large enough to keep the whole run: the counts below need every event.
  obs::TraceConfig cfg;
  cfg.capacity = 1 << 20;
  obs::TraceSink sink(cfg);
  {
    // Re-run once with the sink shared so we can query the live objects.
    // Pi2 and chi ride along so every engine's counters are checked.
    testing::ChurnNet n(7);
    n.net.sim().set_trace(&sink);
    n.add_cbr(0, 2, 1, 400.0, 2.05, 16.5);
    attacks::FlowMatch match;
    match.flow_ids = {1};
    n.net.router(1).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
        match, 0.3, SimTime::from_seconds(5.5), 99));
    Pik2Config pk;
    pk.clock = testing::ChurnNet::clock();
    pk.k = 1;
    pk.collect_settle = Duration::millis(150);
    pk.exchange_timeout = Duration::millis(500);
    pk.policy = TvPolicy::kContentOrder;
    pk.rounds = kRounds;
    pk.reliable.enabled = true;
    Pik2Engine pik2(n.net, n.keys, *n.paths, testing::ChurnNet::terminals(), pk);
    Pi2Config p2;
    p2.clock = testing::ChurnNet::clock();
    p2.collect_settle = Duration::millis(150);
    p2.evaluate_settle = Duration::millis(300);
    p2.rounds = kRounds;
    Pi2Engine pi2(n.net, n.keys, *n.paths, testing::ChurnNet::terminals(), p2);
    ChiConfig cc;
    cc.clock = testing::ChurnNet::clock();
    cc.learning_rounds = 3;
    cc.rounds = kRounds;
    QueueValidator chi(n.net, n.keys, *n.paths, /*owner=*/1, /*peer=*/2, cc);
    testing::ChurnNet::flap_schedule().arm(n.net);
    pik2.start();
    pi2.start();
    chi.start();
    n.net.sim().run_until(SimTime::from_seconds(kEndS));

    ASSERT_EQ(sink.overwritten(), 0U);
    expect_traced(sink, obs::TraceSource::kPik2, pik2.counters());
    expect_traced(sink, obs::TraceSource::kPi2, pi2.counters());
    expect_traced(sink, obs::TraceSource::kChi, chi.counters());

    // The reliable transport's stats equal its exchange events.
    ASSERT_NE(pik2.channel(), nullptr);
    const ReliableChannel::Stats& rs = pik2.channel()->stats();
    testing::expect_reliable_traced(sink, rs);
    EXPECT_GT(rs.messages, 0U);
  }

  // Every layer that claims instrumentation shows up.
  obs::Timeline tl(sink);
  using obs::TraceCategory;
  using obs::TraceCode;
  EXPECT_TRUE(tl.first(TraceCategory::kQueue).has_value());          // sim enqueue
  EXPECT_TRUE(tl.first(TraceCategory::kDrop, TraceCode::kDropMalicious).has_value());
  EXPECT_TRUE(tl.first(TraceCategory::kRoute, TraceCode::kSpfRun).has_value());
  EXPECT_TRUE(tl.first(TraceCategory::kRoute, TraceCode::kLinkDown).has_value());
  EXPECT_TRUE(tl.first(TraceCategory::kRoute, TraceCode::kLinkUp).has_value());
  EXPECT_TRUE(tl.first(TraceCategory::kRoute, TraceCode::kRouteChange).has_value());
  EXPECT_TRUE(tl.first(TraceCategory::kRound, TraceCode::kRoundOpen).has_value());
  EXPECT_TRUE(tl.first(TraceCategory::kRound, TraceCode::kRoundInvalidated).has_value());
  EXPECT_TRUE(tl.first(TraceCategory::kExchange, TraceCode::kExchangeSend).has_value());
  EXPECT_TRUE(tl.first(TraceCategory::kSuspicion).has_value());
}

}  // namespace
}  // namespace fatih::detection

#endif  // FATIH_TRACE

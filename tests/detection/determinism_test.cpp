// Determinism regression: identical seeds must produce byte-identical
// runs. This is the invariant the perf work (pooled event engine, packet
// move-through, flat per-round stores) was required to preserve — tie-break
// order in the event heap and iteration order of every accounting walk are
// all load-bearing for it.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attacks/attacks.hpp"
#include "crypto/siphash.hpp"
#include "detection/chi.hpp"
#include "detection/pi2.hpp"
#include "detection/pik2.hpp"
#include "tests/detection/churn_net.hpp"
#include "tests/detection/test_net.hpp"

namespace fatih::detection {
namespace {

using testing::ChurnNet;
using testing::LineNet;
using util::Duration;
using util::SimTime;

struct RunResult {
  std::uint64_t events_dispatched = 0;
  std::vector<std::string> suspicions;  // formatted, in raise order
  std::uint64_t rounds_invalidated = 0;
  std::uint64_t state_fingerprint = 0;  ///< set by the χ fixture
};

/// One full Π2 experiment: 5-router line, bidirectional CBR, a rate-drop
/// attacker at r2 from t=2s, four rounds. Everything seeded; no wall-clock
/// input anywhere.
RunResult run_pi2_fixture() {
  LineNet line{5};
  Pi2Config cfg;
  cfg.clock = RoundClock{SimTime::origin(), Duration::seconds(1)};
  cfg.k = 1;
  cfg.collect_settle = Duration::millis(150);
  cfg.evaluate_settle = Duration::millis(300);
  cfg.policy = TvPolicy::kContentOrder;
  cfg.rounds = 4;
  Pi2Engine engine(line.net, line.keys, *line.paths, line.terminals(), cfg);
  line.add_cbr(0, 4, 1, 200, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  line.add_cbr(4, 0, 2, 150, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  line.net.router(2).set_forward_filter(
      std::make_shared<attacks::RateDropAttack>(match, 1.0, SimTime::from_seconds(2), 99));
  engine.start();
  line.net.sim().run_until(SimTime::from_seconds(6));

  RunResult out;
  out.events_dispatched = line.net.sim().events_dispatched();
  for (const auto& s : engine.suspicions()) out.suspicions.push_back(s.to_string());
  return out;
}

TEST(Determinism, Pi2FixtureTwiceIsByteIdentical) {
  const RunResult a = run_pi2_fixture();
  const RunResult b = run_pi2_fixture();
  // The comparison must not be vacuous: the attack raises suspicions and
  // the run dispatches real work.
  ASSERT_FALSE(a.suspicions.empty());
  ASSERT_GT(a.events_dispatched, 1000U);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  ASSERT_EQ(a.suspicions.size(), b.suspicions.size());
  EXPECT_EQ(a.suspicions, b.suspicions);
}

// The fingerprint pipeline batch-hashes through runtime-dispatched SIMD
// kernels; every tier must produce the same digests, so the dispatch
// level must be invisible to detection. Run the full Π2 experiment once
// per available tier and require byte-identical suspicion sets.
TEST(Determinism, Pi2SuspicionsIdenticalAcrossSimdDispatchLevels) {
  const RunResult baseline = run_pi2_fixture();  // widest tier the CPU has
  ASSERT_FALSE(baseline.suspicions.empty());
  for (const crypto::SimdLevel cap :
       {crypto::SimdLevel::kScalar, crypto::SimdLevel::kSse2, crypto::SimdLevel::kAvx2}) {
    const crypto::SimdLevel old = crypto::set_simd_level_cap(cap);
    if (crypto::simd_level() != cap) {  // tier not available on this CPU/build
      crypto::set_simd_level_cap(old);
      continue;
    }
    const RunResult r = run_pi2_fixture();
    crypto::set_simd_level_cap(old);
    EXPECT_EQ(r.events_dispatched, baseline.events_dispatched)
        << "dispatch level " << static_cast<int>(cap);
    EXPECT_EQ(r.suspicions, baseline.suspicions) << "dispatch level " << static_cast<int>(cap);
  }
}

struct Pi2AttackRun {
  std::uint64_t mid_round_fingerprint = 0;  ///< after round 2 ships, before it is evaluated
  std::vector<std::string> suspicions;
};

/// The Π2 fixture above, data-plane drop included, under two control-plane
/// attacks on round 2 (it ships at 3.15 s and is evaluated at 3.45 s): r2
/// floods a conflicting second summary for a segment it already reported
/// on, and r0 signs a summary for <2,3,4>, a segment it is not on.
Pi2AttackRun run_pi2_control_attack_fixture() {
  LineNet line{5};
  Pi2Config cfg;
  cfg.clock = RoundClock{SimTime::origin(), Duration::seconds(1)};
  cfg.k = 1;
  cfg.collect_settle = Duration::millis(150);
  cfg.evaluate_settle = Duration::millis(300);
  cfg.policy = TvPolicy::kContentOrder;
  cfg.rounds = 4;
  Pi2Engine engine(line.net, line.keys, *line.paths, line.terminals(), cfg);
  line.add_cbr(0, 4, 1, 200, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  line.add_cbr(4, 0, 2, 150, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  line.net.router(2).set_forward_filter(
      std::make_shared<attacks::RateDropAttack>(match, 1.0, SimTime::from_seconds(2), 99));
  line.net.sim().schedule_at(SimTime::from_seconds(3.25), [&engine] {
    SegmentSummary conflicting;
    conflicting.reporter = 2;
    conflicting.segment = engine.monitored_by(2).front();
    conflicting.round = 2;
    conflicting.content = {0xDEADu, 0xBEEFu, 0xF00Du};
    engine.inject_summary(2, conflicting);
    SegmentSummary off_segment;
    off_segment.reporter = 0;
    off_segment.segment = routing::PathSegment{2, 3, 4};
    off_segment.round = 2;
    off_segment.counters.packets = 1;
    off_segment.content = {0xC0FFEEu};
    engine.inject_summary(0, off_segment);
  });
  engine.start();
  line.net.sim().run_until(SimTime::from_seconds(3.4));

  Pi2AttackRun out;
  out.mid_round_fingerprint = engine.state_fingerprint();
  line.net.sim().run_until(SimTime::from_seconds(6));
  for (const auto& s : engine.suspicions()) out.suspicions.push_back(s.to_string());
  return out;
}

// Pins the Π2 per-round stores where only an attack reaches them: a
// poisoned slot, a second variant for one statement, and a slot whose
// reporter is not on the segment. Any change to what the stores hold
// between dissemination and evaluation moves the fingerprint, which the
// scenario checkpoint digests hash.
TEST(Determinism, Pi2StateUnderControlPlaneAttackIsPinned) {
  const Pi2AttackRun run = run_pi2_control_attack_fixture();
  EXPECT_EQ(run.mid_round_fingerprint, 0xBA5A31168FBC57DAULL);
  const std::vector<std::string> expected = {
      "r0 suspects <r2> during [2.000000s,3.000000s) cause=equivocation conf=1.0000",
      "r0 suspects <r1,r2> during [2.000000s,3.000000s) cause=tv-failed conf=1.0000",
      "r1 suspects <r2> during [2.000000s,3.000000s) cause=equivocation conf=1.0000",
      "r1 suspects <r1,r2> during [2.000000s,3.000000s) cause=tv-failed conf=1.0000",
      "r2 suspects <r2> during [2.000000s,3.000000s) cause=equivocation conf=1.0000",
      "r2 suspects <r1,r2> during [2.000000s,3.000000s) cause=tv-failed conf=1.0000",
      "r3 suspects <r2> during [2.000000s,3.000000s) cause=equivocation conf=1.0000",
      "r3 suspects <r1,r2> during [2.000000s,3.000000s) cause=tv-failed conf=1.0000",
      "r4 suspects <r2> during [2.000000s,3.000000s) cause=equivocation conf=1.0000",
      "r4 suspects <r1,r2> during [2.000000s,3.000000s) cause=tv-failed conf=1.0000",
      "r0 suspects <r1,r2> during [3.000000s,4.000000s) cause=tv-failed conf=1.0000",
      "r1 suspects <r1,r2> during [3.000000s,4.000000s) cause=tv-failed conf=1.0000",
      "r2 suspects <r1,r2> during [3.000000s,4.000000s) cause=tv-failed conf=1.0000",
      "r3 suspects <r1,r2> during [3.000000s,4.000000s) cause=tv-failed conf=1.0000",
      "r4 suspects <r1,r2> during [3.000000s,4.000000s) cause=tv-failed conf=1.0000",
  };
  EXPECT_EQ(run.suspicions, expected);
}

/// The churn diamond with live link-state routing, a flapping link, and an
/// attacker — the most event-entangled fixture in the suite (hello timers,
/// LSA floods, SPF runs, epoch pushes, round invalidation all interleave
/// with data traffic). Shared by the Πk+2 and χ run-twice checks below.
struct ChurnHarness {
  ChurnNet n;
  ChurnHarness() {
    n.add_cbr(0, 2, 1, 400, 2.05, 13.5);
    attacks::FlowMatch match;
    match.flow_ids = {1};
    n.net.router(1).set_forward_filter(
        std::make_shared<attacks::RateDropAttack>(match, 0.3, SimTime::from_seconds(5.5), 99));
    ChurnNet::flap_schedule().arm(n.net);
  }
  void run() { n.net.sim().run_until(SimTime::from_seconds(14)); }
};

RunResult run_pik2_churn_fixture() {
  ChurnHarness h;
  Pik2Config cfg;
  cfg.clock = ChurnNet::clock();
  cfg.k = 1;
  cfg.collect_settle = Duration::millis(150);
  cfg.exchange_timeout = Duration::millis(500);
  cfg.policy = TvPolicy::kContentOrder;
  cfg.rounds = 10;
  Pik2Engine engine(h.n.net, h.n.keys, *h.n.paths, ChurnNet::terminals(), cfg);
  engine.start();
  h.run();

  RunResult out;
  out.events_dispatched = h.n.net.sim().events_dispatched();
  for (const auto& s : engine.suspicions()) out.suspicions.push_back(s.to_string());
  out.rounds_invalidated = engine.counters().rounds_invalidated;
  return out;
}

RunResult run_chi_churn_fixture() {
  ChurnHarness h;
  ChiConfig cfg;
  cfg.clock = ChurnNet::clock();
  cfg.settle = Duration::millis(400);
  cfg.grace = Duration::millis(200);
  cfg.learning_rounds = 3;
  cfg.rounds = 10;
  QueueValidator v(h.n.net, h.n.keys, *h.n.paths, 1, 2, cfg);
  v.start();
  h.run();

  RunResult out;
  out.events_dispatched = h.n.net.sim().events_dispatched();
  for (const auto& s : v.suspicions()) out.suspicions.push_back(s.to_string());
  out.rounds_invalidated = v.counters().rounds_invalidated;
  out.state_fingerprint = v.state_fingerprint();
  return out;
}

TEST(Determinism, Pik2ChurnFixtureTwiceIsByteIdentical) {
  const RunResult a = run_pik2_churn_fixture();
  const RunResult b = run_pik2_churn_fixture();
  // Non-vacuous: the attacker is caught AND the flap invalidated rounds.
  ASSERT_FALSE(a.suspicions.empty());
  ASSERT_GT(a.rounds_invalidated, 0U);
  ASSERT_GT(a.events_dispatched, 1000U);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.suspicions, b.suspicions);
  EXPECT_EQ(a.rounds_invalidated, b.rounds_invalidated);
}

TEST(Determinism, ChiChurnFixtureTwiceIsByteIdentical) {
  const RunResult a = run_chi_churn_fixture();
  const RunResult b = run_chi_churn_fixture();
  ASSERT_FALSE(a.suspicions.empty());
  ASSERT_GT(a.rounds_invalidated, 0U);
  ASSERT_GT(a.events_dispatched, 1000U);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.suspicions, b.suspicions);
  EXPECT_EQ(a.rounds_invalidated, b.rounds_invalidated);
}

// Pins χ's state on the churn path, where invalidated rounds drain the
// replay unjudged and a reroute changes which neighbors report. The
// run-twice check above compares one build with itself; these literals
// catch a change that moves the replay across builds.
TEST(Determinism, ChiChurnStateIsPinned) {
  const RunResult run = run_chi_churn_fixture();
  EXPECT_EQ(run.state_fingerprint, 0x2E94C37CE3C0B505ULL);
  EXPECT_EQ(run.events_dispatched, 27735U);
  EXPECT_EQ(run.rounds_invalidated, 3U);
  const std::vector<std::string> expected = {
      "r2 suspects <r0,r1> during [5.000000s,6.000000s) cause=single-loss-test conf=1.0000",
      "r2 suspects <r0,r1> during [5.000000s,6.000000s) cause=combined-loss-test conf=1.0000",
      "r2 suspects <r0,r1> during [5.000000s,6.000000s) cause=suspicious-count-test conf=1.0000",
      "r2 suspects <r0,r1> during [6.000000s,7.000000s) cause=single-loss-test conf=1.0000",
      "r2 suspects <r0,r1> during [6.000000s,7.000000s) cause=combined-loss-test conf=1.0000",
      "r2 suspects <r0,r1> during [6.000000s,7.000000s) cause=suspicious-count-test conf=1.0000",
      "r2 suspects <r0,r1> during [10.000000s,11.000000s) cause=single-loss-test conf=1.0000",
      "r2 suspects <r0,r1> during [10.000000s,11.000000s) cause=combined-loss-test conf=1.0000",
      "r2 suspects <r0,r1> during [10.000000s,11.000000s) cause=suspicious-count-test conf=1.0000",
      "r2 suspects <r0,r1> during [11.000000s,12.000000s) cause=single-loss-test conf=1.0000",
      "r2 suspects <r0,r1> during [11.000000s,12.000000s) cause=combined-loss-test conf=1.0000",
      "r2 suspects <r0,r1> during [11.000000s,12.000000s) cause=suspicious-count-test conf=1.0000",
  };
  EXPECT_EQ(run.suspicions, expected);
}

}  // namespace
}  // namespace fatih::detection

// Topology-churn resilience: the acceptance scenario for the churn-aware
// detection epochs. A link flap mid-experiment must never produce a false
// accusation — the straddling rounds are invalidated instead — and with a
// traffic-faulty router present, detection must resume once the paths
// re-stabilize.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "attacks/attacks.hpp"
#include "detection/chi.hpp"
#include "detection/path_cache.hpp"
#include "detection/pi2.hpp"
#include "detection/pik2.hpp"
#include "detection/spec.hpp"
#include "tests/detection/churn_net.hpp"

namespace fatih::detection {
namespace {

using util::Duration;
using util::NodeId;
using util::SimTime;

// ----------------------------------------------------------------------
// PathCache epoch unit tests (no simulation: two hand-built table sets).

std::shared_ptr<routing::RoutingTables> diamond_tables(bool with_primary) {
  sim::Network net(1);
  for (util::NodeId i = 0; i < 4; ++i) net.add_router(util::node_name(i));
  auto link = [&](NodeId a, NodeId b, std::uint32_t metric) {
    sim::LinkConfig cfg;
    cfg.bandwidth_bps = 1e8;
    cfg.delay = Duration::millis(1);
    cfg.metric = metric;
    net.connect(a, b, cfg);
  };
  link(0, 1, 1);
  if (with_primary) link(1, 2, 1);
  link(0, 3, 5);
  link(3, 2, 5);
  return std::make_shared<routing::RoutingTables>(routing::Topology::from_network(net));
}

TEST(PathCacheEpochs, AnswersAsOfTime) {
  PathCache cache(diamond_tables(true));
  // The r1—r2 cut becomes authoritative at 10 s; the underlying failure
  // may date back to 8 s (dead-interval blackhole).
  cache.push_epoch(diamond_tables(false), SimTime::from_seconds(10), SimTime::from_seconds(8));
  ASSERT_EQ(cache.epoch_count(), 2U);

  const routing::Path primary{0, 1, 2};
  const routing::Path detour{0, 3, 2};
  EXPECT_EQ(cache.path_at(0, 2, SimTime::from_seconds(5)), primary);
  EXPECT_EQ(cache.path_at(0, 2, SimTime::from_seconds(12)), detour);
  EXPECT_EQ(cache.path(0, 2), detour);  // un-suffixed = latest epoch
  EXPECT_EQ(cache.next_hop_after_at(0, 2, 0, SimTime::from_seconds(5)), 1U);
  EXPECT_EQ(cache.next_hop_after_at(0, 2, 0, SimTime::from_seconds(12)), 3U);
}

TEST(PathCacheEpochs, StabilityPredicates) {
  PathCache cache(diamond_tables(true));
  cache.push_epoch(diamond_tables(false), SimTime::from_seconds(10), SimTime::from_seconds(8));

  // Before / after the transition window [8, 10) the pair is stable.
  EXPECT_TRUE(cache.path_stable(0, 2, SimTime::from_seconds(2), SimTime::from_seconds(7)));
  EXPECT_TRUE(cache.path_stable(0, 2, SimTime::from_seconds(10.5), SimTime::from_seconds(12)));
  // Straddling it is not.
  EXPECT_FALSE(cache.path_stable(0, 2, SimTime::from_seconds(7), SimTime::from_seconds(9)));
  // A pair the reroute does not touch stays stable through the window.
  EXPECT_TRUE(cache.path_stable(0, 1, SimTime::from_seconds(7), SimTime::from_seconds(12)));

  EXPECT_FALSE(cache.changed_during(SimTime::from_seconds(2), SimTime::from_seconds(7)));
  EXPECT_TRUE(cache.changed_during(SimTime::from_seconds(7), SimTime::from_seconds(9)));
  EXPECT_FALSE(cache.changed_during(SimTime::from_seconds(10.5), SimTime::from_seconds(12)));

  // A straggler SPF at 11 s widens the window; the interval that looked
  // settled no longer is.
  cache.extend_transition(SimTime::from_seconds(11));
  EXPECT_FALSE(cache.path_stable(0, 2, SimTime::from_seconds(10.5), SimTime::from_seconds(12)));
  EXPECT_TRUE(cache.changed_during(SimTime::from_seconds(10.5), SimTime::from_seconds(12)));
}

// ----------------------------------------------------------------------
// The acceptance scenario: diamond under a live link-state fabric, with
// the r1—r2 link flapping down at 7.4 s and back at 9.4 s. All three
// protocols run simultaneously on the same network.

constexpr std::int64_t kRounds = 14;
constexpr double kFlapDownS = 7.4;
constexpr double kEndS = 18.0;
/// Paths are settled again (last SPF everywhere) well before here.
constexpr double kResumedS = 10.0;

struct Harness {
  testing::ChurnNet n;
  std::unique_ptr<Pi2Engine> pi2;
  std::unique_ptr<Pik2Engine> pik2;
  std::unique_ptr<QueueValidator> chi;
  GroundTruth truth;

  explicit Harness(bool with_attacker) {
    n.add_cbr(0, 2, /*flow=*/1, /*pps=*/400.0, /*start=*/2.05, /*stop=*/16.5);
    if (with_attacker) {
      attacks::FlowMatch match;
      match.flow_ids = {1};
      n.net.router(1).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
          match, 0.3, SimTime::from_seconds(5.5), 99));
      truth.mark_traffic_faulty(1, SimTime::from_seconds(5.5));
    }

    Pi2Config p2;
    p2.clock = testing::ChurnNet::clock();
    p2.k = 1;
    p2.collect_settle = Duration::millis(150);
    p2.evaluate_settle = Duration::millis(300);
    p2.policy = TvPolicy::kContentOrder;
    p2.rounds = kRounds;
    pi2 = std::make_unique<Pi2Engine>(n.net, n.keys, *n.paths,
                                      testing::ChurnNet::terminals(), p2);

    Pik2Config pk;
    pk.clock = testing::ChurnNet::clock();
    pk.k = 1;
    pk.collect_settle = Duration::millis(150);
    pk.exchange_timeout = Duration::millis(500);
    pk.policy = TvPolicy::kContentOrder;
    pk.rounds = kRounds;
    pik2 = std::make_unique<Pik2Engine>(n.net, n.keys, *n.paths,
                                        testing::ChurnNet::terminals(), pk);

    ChiConfig cc;
    cc.clock = testing::ChurnNet::clock();
    cc.settle = Duration::millis(400);
    cc.grace = Duration::millis(200);
    cc.learning_rounds = 3;
    cc.rounds = kRounds;
    chi = std::make_unique<QueueValidator>(n.net, n.keys, *n.paths, /*owner=*/1, /*peer=*/2, cc);

    const sim::ChurnSchedule churn = testing::ChurnNet::flap_schedule();
    churn.arm(n.net);
    for (const util::TimeInterval& w :
         churn.churn_intervals(Duration::millis(1600), SimTime::from_seconds(kEndS))) {
      truth.mark_churn(w);
    }

    pi2->start();
    pik2->start();
    chi->start();
  }

  void run() { n.net.sim().run_until(SimTime::from_seconds(kEndS)); }
};

bool detected_before(const std::vector<Suspicion>& suspicions, NodeId faulty, double before) {
  return std::any_of(suspicions.begin(), suspicions.end(), [&](const Suspicion& s) {
    return s.segment.contains(faulty) && s.interval.end <= SimTime::from_seconds(before);
  });
}

TEST(Churn, FlapWithoutAttackerRaisesNoSuspicions) {
  Harness h(/*with_attacker=*/false);
  h.run();

  // The flap really happened: routes changed at the ends and the oracle
  // grew an epoch per reconvergence (down + up).
  EXPECT_GE(h.n.lsr->route_changes(0), 2U);
  EXPECT_GE(h.n.paths->epoch_count(), 3U);

  // Zero suspicions from any protocol — reconvergence is not an attack.
  EXPECT_TRUE(h.pi2->suspicions().empty())
      << "pi2: " << h.pi2->suspicions().front().to_string();
  EXPECT_TRUE(h.pik2->suspicions().empty())
      << "pik2: " << h.pik2->suspicions().front().to_string();
  EXPECT_TRUE(h.chi->suspicions().empty())
      << "chi: " << h.chi->suspicions().front().to_string();

  // ... because the straddling rounds were invalidated, not judged.
  EXPECT_GT(h.pi2->counters().rounds_invalidated, 0U);
  EXPECT_GT(h.pik2->counters().rounds_invalidated, 0U);
  EXPECT_GT(h.chi->counters().rounds_invalidated, 0U);
  EXPECT_TRUE(h.chi->learned());

  // Spec check (vacuous counts, but through the real checker).
  for (const auto* suspicions :
       {&h.pi2->suspicions(), &h.pik2->suspicions(), &h.chi->suspicions()}) {
    const SpecReport rep = check_accuracy(*suspicions, h.truth, 3);
    EXPECT_EQ(rep.violations, 0U);
    EXPECT_EQ(rep.churn_violations, 0U);
  }
}

TEST(Churn, AttackerStillDetectedAcrossReconvergence) {
  Harness h(/*with_attacker=*/true);
  h.run();
  EXPECT_GE(h.n.paths->epoch_count(), 3U);

  // Accuracy holds throughout — churn never excuses a false accusation,
  // and none of the violations-from-reconvergence the invalidation
  // machinery exists to prevent occurred.
  const SpecReport pi2_rep = check_accuracy(h.pi2->suspicions(), h.truth, 2);
  const SpecReport pik2_rep = check_accuracy(h.pik2->suspicions(), h.truth, 3);
  const SpecReport chi_rep = check_accuracy(h.chi->suspicions(), h.truth, 2);
  for (const SpecReport* rep : {&pi2_rep, &pik2_rep, &chi_rep}) {
    EXPECT_TRUE(rep->accuracy_holds()) << "violations=" << rep->violations
                                       << " oversized=" << rep->oversized;
    EXPECT_EQ(rep->churn_violations, 0U);
    EXPECT_GT(rep->suspicions, 0U);
  }

  // Detected before the flap...
  EXPECT_TRUE(detected_before(h.pi2->suspicions(), 1, kFlapDownS));
  EXPECT_TRUE(detected_before(h.pik2->suspicions(), 1, kFlapDownS));
  EXPECT_TRUE(detected_before(h.chi->suspicions(), 1, kFlapDownS));

  // ... and again once the paths re-stabilized (completeness resumes on
  // rounds that START after the settle point; invalidated rounds never
  // satisfy this).
  const SimTime resumed = SimTime::from_seconds(kResumedS);
  EXPECT_TRUE(check_completeness_for_after(h.pi2->suspicions(), 1, resumed));
  EXPECT_TRUE(check_completeness_for_after(h.pik2->suspicions(), 1, resumed));
  EXPECT_TRUE(check_completeness_for_after(h.chi->suspicions(), 1, resumed));

  // The flap rounds themselves were invalidated rather than judged.
  EXPECT_GT(h.pi2->counters().rounds_invalidated, 0U);
  EXPECT_GT(h.pik2->counters().rounds_invalidated, 0U);
  EXPECT_GT(h.chi->counters().rounds_invalidated, 0U);
}

}  // namespace
}  // namespace fatih::detection

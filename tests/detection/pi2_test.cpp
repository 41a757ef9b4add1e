#include "detection/pi2.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "attacks/attacks.hpp"
#include "crypto/siphash.hpp"
#include "detection/spec.hpp"
#include "tests/detection/test_net.hpp"
#include "util/rng.hpp"

namespace fatih::detection {
namespace {

using testing::LineNet;
using util::Duration;
using util::SimTime;

Pi2Config fast_config(std::int64_t rounds = 4, std::size_t k = 1) {
  Pi2Config cfg;
  cfg.clock = RoundClock{SimTime::origin(), Duration::seconds(1)};
  cfg.k = k;
  cfg.collect_settle = Duration::millis(150);
  cfg.evaluate_settle = Duration::millis(300);
  cfg.policy = TvPolicy::kContentOrder;
  cfg.rounds = rounds;
  return cfg;
}

// Runs a 5-router line with CBR 0->4 and 4->0 for `seconds`.
struct Pi2Fixture {
  LineNet line{5};
  std::unique_ptr<Pi2Engine> engine;

  explicit Pi2Fixture(Pi2Config cfg = fast_config()) {
    engine = std::make_unique<Pi2Engine>(line.net, line.keys, *line.paths, line.terminals(),
                                         cfg);
    line.add_cbr(0, 4, 1, 200, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
    line.add_cbr(4, 0, 2, 150, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
    engine->start();
  }

  void run(double seconds = 6.0) { line.net.sim().run_until(SimTime::from_seconds(seconds)); }
};

TEST(Pi2, NoAttackNoSuspicions) {
  Pi2Fixture f;
  f.run();
  EXPECT_TRUE(f.engine->suspicions().empty());
}

TEST(Pi2, MonitoredSetsMatchSegmentIndex) {
  Pi2Fixture f;
  // Interior router 2 of a 5-line with k=1 monitors the 3-windows
  // containing it, in both directions: {<0,1,2>,<1,2,3>,<2,3,4>} and the
  // three reverses.
  const auto segs = f.engine->monitored_by(2);
  EXPECT_EQ(segs.size(), 6U);
  // End router 0 is in <0,1,2> and <2,1,0>.
  EXPECT_EQ(f.engine->monitored_by(0).size(), 2U);
}

TEST(Pi2, DropperSuspectedWithPrecision2) {
  Pi2Fixture f;
  GroundTruth truth;
  truth.mark_traffic_faulty(2, SimTime::from_seconds(2));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  f.line.net.router(2).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 1.0, SimTime::from_seconds(2), 99));
  f.run();
  const auto& suspicions = f.engine->suspicions();
  ASSERT_FALSE(suspicions.empty());
  const auto report = check_accuracy(suspicions, truth, 2);
  EXPECT_TRUE(report.accuracy_holds());
  EXPECT_TRUE(check_completeness_for(suspicions, 2));
}

TEST(Pi2, StrongCompletenessEveryCorrectRouterSuspects) {
  Pi2Fixture f;
  attacks::FlowMatch match;
  match.flow_ids = {1};
  f.line.net.router(2).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 1.0, SimTime::from_seconds(2), 99));
  f.run();
  // Every correct router that monitors a segment containing r2 must have
  // raised a suspicion containing r2 (strong completeness, §5.1).
  for (util::NodeId r : {0U, 1U, 3U, 4U}) {
    bool found = false;
    for (const auto& s : f.engine->suspicions()) {
      if (s.reporter == r && s.segment.contains(2)) found = true;
    }
    EXPECT_TRUE(found) << "router " << r;
  }
}

TEST(Pi2, ModificationDetected) {
  Pi2Fixture f;
  GroundTruth truth;
  truth.mark_traffic_faulty(1, SimTime::from_seconds(2));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  f.line.net.router(1).set_forward_filter(std::make_shared<attacks::ModificationAttack>(
      match, 0.5, SimTime::from_seconds(2), 99));
  f.run();
  ASSERT_FALSE(f.engine->suspicions().empty());
  EXPECT_TRUE(check_accuracy(f.engine->suspicions(), truth, 2).accuracy_holds());
  EXPECT_TRUE(check_completeness_for(f.engine->suspicions(), 1));
}

TEST(Pi2, ReorderingDetected) {
  Pi2Fixture f;
  GroundTruth truth;
  truth.mark_traffic_faulty(3, SimTime::from_seconds(2));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  // Hold back 30% of packets by 30 ms: reorders past ~6 packets at 200pps.
  f.line.net.router(3).set_forward_filter(std::make_shared<attacks::ReorderAttack>(
      match, 0.3, Duration::millis(30), SimTime::from_seconds(2), 99));
  f.run();
  ASSERT_FALSE(f.engine->suspicions().empty());
  EXPECT_TRUE(check_accuracy(f.engine->suspicions(), truth, 2).accuracy_holds());
  EXPECT_TRUE(check_completeness_for(f.engine->suspicions(), 3));
}

TEST(Pi2, FabricationDetected) {
  Pi2Fixture f;
  GroundTruth truth;
  truth.mark_traffic_faulty(2, SimTime::from_seconds(1));
  attacks::FabricationAttack::Config cfg;
  cfg.at = 2;
  cfg.forged_src = 0;
  cfg.dst = 4;
  cfg.flow_id = 1;
  cfg.rate_pps = 100;
  cfg.start = SimTime::from_seconds(1);
  cfg.stop = SimTime::from_seconds(3.5);
  attacks::FabricationAttack attack(f.line.net, cfg);
  f.run();
  ASSERT_FALSE(f.engine->suspicions().empty());
  EXPECT_TRUE(check_accuracy(f.engine->suspicions(), truth, 2).accuracy_holds());
  EXPECT_TRUE(check_completeness_for(f.engine->suspicions(), 2));
}

TEST(Pi2, MisroutingDetected) {
  // Misrouting is loss + fabrication (§2.2.1): the packet vanishes from
  // its nominal segment and appears where it does not belong.
  Pi2Fixture f;
  GroundTruth truth;
  truth.mark_traffic_faulty(2, SimTime::from_seconds(2));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  // r2 diverts flow 1 back toward r1 instead of onward to r3.
  const std::size_t wrong = f.line.net.router(2).interface_to(1)->index();
  f.line.net.router(2).set_forward_filter(std::make_shared<attacks::MisrouteAttack>(
      match, 1.0, wrong, SimTime::from_seconds(2), 99));
  f.run();
  ASSERT_FALSE(f.engine->suspicions().empty());
  EXPECT_TRUE(check_accuracy(f.engine->suspicions(), truth, 2).accuracy_holds());
  EXPECT_TRUE(check_completeness_for(f.engine->suspicions(), 2));
}

TEST(Pi2, ProtocolFaultySilenceSuspected) {
  Pi2Fixture f;
  GroundTruth truth;
  truth.mark_protocol_faulty(2, SimTime::from_seconds(2));
  f.engine->set_report_mutator(2, [&f](SegmentSummary& s) {
    // Withhold everything from round 2 on.
    return s.round < 2;
  });
  f.run();
  ASSERT_FALSE(f.engine->suspicions().empty());
  EXPECT_TRUE(check_accuracy(f.engine->suspicions(), truth, 2).accuracy_holds());
  EXPECT_TRUE(check_completeness_for(f.engine->suspicions(), 2));
}

TEST(Pi2, LyingSummaryImplicatesLiarPair) {
  Pi2Fixture f;
  GroundTruth truth;
  truth.mark_protocol_faulty(1, SimTime::origin());
  f.engine->set_report_mutator(1, [](SegmentSummary& s) {
    // Claim one extra phantom packet everywhere.
    s.content.push_back(0xDEADBEEF);
    s.counters.add(1000);
    return true;
  });
  f.run();
  ASSERT_FALSE(f.engine->suspicions().empty());
  const auto report = check_accuracy(f.engine->suspicions(), truth, 2);
  EXPECT_TRUE(report.accuracy_holds());
  EXPECT_TRUE(check_completeness_for(f.engine->suspicions(), 1));
}

TEST(Pi2, ThresholdsAbsorbBenignLoss) {
  // With a congested link and a loss allowance, clean-but-lossy traffic
  // must not raise suspicions.
  sim::LinkConfig tight = testing::fast_link();
  tight.bandwidth_bps = 2e6;
  tight.queue_limit_bytes = 8000;
  LineNet line(5, tight);
  auto cfg = fast_config(4);
  cfg.thresholds.max_lost_fraction = 0.6;
  Pi2Engine engine(line.net, line.keys, *line.paths, line.terminals(), cfg);
  // 400 pps of 1000B = 3.2 Mbps through a 2 Mbps bottleneck: heavy loss.
  line.add_cbr(0, 4, 1, 400, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  engine.start();
  line.net.sim().run_until(SimTime::from_seconds(6));
  EXPECT_TRUE(engine.suspicions().empty());
}

// ------------------------------------------------------------- flood key

/// The full-content key: SipHash of SegmentSummary::encode ‖ the tag, under
/// the flood key's constant key. The flood key must split the copies below
/// into exactly the groups this one does.
std::uint64_t full_content_key(const SegmentSummaryPayload& p) {
  constexpr crypto::SipKey kKey{0x50493246C00DF00DULL, 0x64697373656D3031ULL};
  crypto::SipHasher h(kKey);
  p.summary.encode([&h](const void* data, std::size_t len) { h.update(data, len); });
  h.update(&p.envelope.tag, sizeof(p.envelope.tag));
  return h.finish();
}

TEST(Pi2FloodKey, GroupsCopiesAsTheFullContentKeyDoes) {
  const crypto::KeyRegistry keys{777};
  const routing::PathSegment seg{0, 1, 2};
  const auto signed_by = [&keys](util::NodeId signer, SegmentSummary s) {
    SegmentSummaryPayload p;
    p.kind_tag = kKindSummaryFlood;
    p.envelope = crypto::sign(keys, signer, s.to_bytes());
    p.summary = std::move(s);
    return p;
  };
  // ForgedControlInjector's copy: the victim's name, a fabricated tag.
  const auto forged = [](const routing::PathSegment& on, std::int64_t round) {
    SegmentSummaryPayload p;
    p.kind_tag = kKindSummaryFlood;
    p.summary.reporter = 1;
    p.summary.segment = on;
    p.summary.round = round;
    p.envelope.signer = 1;
    p.envelope.payload = p.summary.to_bytes();
    p.envelope.tag = 0xDEADC0DEDEADC0DEULL;
    return p;
  };

  SegmentSummary honest;
  honest.reporter = 1;
  honest.segment = seg;
  honest.round = 4;
  util::Rng rng(17);
  for (int i = 0; i < 150; ++i) {
    honest.content.push_back(rng.next_u64());
    honest.counters.add(1000);
  }
  SegmentSummary empty;
  empty.reporter = 1;
  empty.segment = seg;
  empty.round = 4;
  SegmentSummary equivocation = honest;
  equivocation.content[75] ^= 1;

  std::vector<SegmentSummaryPayload> copies;
  copies.push_back(signed_by(1, honest));
  copies.push_back(copies.front());  // a deep copy
  // ControlTamperAttack: one payload byte flipped, summary and tag kept;
  // an empty payload gets its tag flipped instead.
  copies.push_back(copies.front());
  copies.back().envelope.payload[copies.back().envelope.payload.size() / 2] ^= std::byte{0x40};
  copies.push_back(signed_by(1, empty));
  copies.push_back(copies.back());
  copies.back().envelope.tag ^= 1;
  copies.push_back(signed_by(1, equivocation));
  for (std::int64_t round : {3, 4, 5}) copies.push_back(forged(seg, round));
  copies.push_back(forged(routing::PathSegment{1, 2, 3}, 5));
  copies.push_back(signed_by(2, honest));  // signed by a router that is not the reporter

  for (std::size_t i = 0; i < copies.size(); ++i) {
    for (std::size_t j = 0; j < copies.size(); ++j) {
      const bool same = full_content_key(copies[i]) == full_content_key(copies[j]);
      EXPECT_EQ(summary_flood_key(copies[i]) == summary_flood_key(copies[j]), same)
          << "copies " << i << " and " << j;
    }
  }
  // The honest summary, its deep copy and its tampered copy form one
  // group; every other copy stands alone.
  std::set<std::uint64_t> groups;
  for (const auto& p : copies) groups.insert(summary_flood_key(p));
  EXPECT_EQ(groups.size(), copies.size() - 2);
}

TEST(Pi2FloodKey, FollowsTheCopyNotTheObjectItWasCopiedFrom) {
  const crypto::KeyRegistry keys{777};
  const auto built = [](const SegmentSummary& s, const crypto::SignedEnvelope& env) {
    SegmentSummaryPayload p;
    p.kind_tag = kKindSummaryFlood;
    p.envelope = env;
    p.summary = s;
    return p;
  };
  SegmentSummary s;
  s.reporter = 1;
  s.segment = routing::PathSegment{0, 1, 2};
  s.round = 4;
  s.content = {11, 22, 33};
  s.counters.add(1000);
  const SegmentSummaryPayload original = built(s, crypto::sign(keys, 1, s.to_bytes()));
  const std::uint64_t key = summary_flood_key(original);

  // A copy of a payload whose key was read, then changed before its own
  // first send, is keyed by its own fields.
  SegmentSummaryPayload copy = original;
  copy.summary.round = 5;
  const std::uint64_t copy_key = summary_flood_key(copy);
  EXPECT_EQ(copy_key, summary_flood_key(built(copy.summary, copy.envelope)));
  EXPECT_NE(copy_key, key);

  // The same for an assignment, changing the counters.
  SegmentSummaryPayload assigned = built(s, original.envelope);
  EXPECT_EQ(summary_flood_key(assigned), key);
  assigned = original;
  assigned.summary.counters.add(500);
  const std::uint64_t assigned_key = summary_flood_key(assigned);
  EXPECT_EQ(assigned_key, summary_flood_key(built(assigned.summary, assigned.envelope)));
  EXPECT_NE(assigned_key, key);
  EXPECT_EQ(summary_flood_key(original), key);
}

// ------------------------------------------ variants held at evaluation

/// Reporter r2 equivocates on its round-1 summary of <1,2,3> so that the
/// routers on either side of it hold different variants when round 1 is
/// evaluated: r0 and r1 the honest one, r3 and r4 one that claims half the
/// packets. Its regular summary is withheld; both variants are injected
/// after the round's dissemination has settled, each while the link to the
/// other side is down. Each router judges by the variant it holds.
TEST(Pi2, RoutersJudgeTheVariantTheyHold) {
  LineNet line{5};
  auto cfg = fast_config(2);
  Pi2Engine engine(line.net, line.keys, *line.paths, line.terminals(), cfg);
  // Traffic ends well before round 1's dissemination at 2.15 s, so the
  // link changes below touch control traffic only.
  line.add_cbr(0, 4, 1, 200, SimTime::from_seconds(0.05), SimTime::from_seconds(1.9));
  line.add_cbr(4, 0, 2, 150, SimTime::from_seconds(0.05), SimTime::from_seconds(1.9));
  const routing::PathSegment seg{1, 2, 3};
  std::optional<SegmentSummary> honest;
  engine.set_report_mutator(2, [&](SegmentSummary& s) {
    if (s.round != 1 || s.segment != seg) return true;
    honest = s;
    return false;
  });
  auto& sim = line.net.sim();
  sim.schedule_at(SimTime::from_seconds(2.20), [&] {
    ASSERT_TRUE(honest.has_value());
    line.net.set_link_up(2, 3, false);
    engine.inject_summary(2, *honest);
  });
  sim.schedule_at(SimTime::from_seconds(2.25), [&] {
    line.net.set_link_up(2, 3, true);
    line.net.set_link_up(1, 2, false);
    SegmentSummary lie = *honest;
    lie.content.resize(lie.content.size() / 2);
    lie.counters = {};
    for (std::size_t i = 0; i < lie.content.size(); ++i) lie.counters.add(1000);
    engine.inject_summary(2, lie);
  });
  sim.schedule_at(SimTime::from_seconds(2.30), [&] { line.net.set_link_up(1, 2, true); });
  engine.start();
  sim.run_until(SimTime::from_seconds(3.0));
  ASSERT_TRUE(honest.has_value());
  ASSERT_GT(honest->content.size(), 100U);

  std::map<util::NodeId, std::set<routing::PathSegment>> tv_failed;
  for (const Suspicion& s : engine.suspicions()) {
    if (s.cause == "tv-failed") tv_failed[s.reporter].insert(s.segment);
    // Nobody is short of a summary: every router holds one variant.
    EXPECT_NE(s.cause, "withheld-summary") << s.to_string();
    if (s.cause == "equivocation") {
      EXPECT_EQ(s.reporter, 2U) << s.to_string();
    }
    EXPECT_EQ(cfg.clock.round_of(s.interval.begin), 1) << s.to_string();
  }
  const std::set<routing::PathSegment> lied_about{routing::PathSegment{1, 2},
                                                  routing::PathSegment{2, 3}};
  EXPECT_FALSE(tv_failed.contains(0));
  EXPECT_FALSE(tv_failed.contains(1));
  EXPECT_EQ(tv_failed[3], lied_about);
  EXPECT_EQ(tv_failed[4], lied_about);
}

}  // namespace
}  // namespace fatih::detection

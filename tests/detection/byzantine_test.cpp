// Byzantine control-plane hardening: the ControlGuard verdicts, the
// evidence-based conviction rules (single liar / colluding pair soundness,
// witness quorum, equivocation and forged-evidence proofs), and the
// per-protocol framing acceptance scenarios on a diamond topology.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "attacks/byzantine.hpp"
#include "detection/chi.hpp"
#include "detection/evidence.hpp"
#include "detection/pi2.hpp"
#include "detection/pik2.hpp"
#include "obs/trace.hpp"
#include "routing/install.hpp"
#include "routing/spf.hpp"
#include "tests/detection/test_net.hpp"
#include "tests/detection/trace_counts.hpp"

namespace fatih::detection {
namespace {

using testing::LineNet;
using util::Duration;
using util::NodeId;
using util::SimTime;

// ----------------------------------------------------------- ControlGuard

struct GuardHarness {
  sim::Network net{3};
  crypto::KeyRegistry keys{501};
  ControlGuard guard{net, keys, obs::TraceSource::kPi2};

  GuardHarness() {
    net.add_router("a");
    net.add_router("b");
  }

  SegmentSummary sample() const {
    SegmentSummary s;
    s.reporter = 0;
    s.segment = routing::PathSegment{0, 1};
    s.round = 3;
    s.counters.packets = 5;
    s.counters.bytes = 500;
    s.content = {11, 22, 33};
    return s;
  }

  static SegmentSummaryPayload carrying(crypto::SignedEnvelope env) {
    SegmentSummaryPayload p;
    p.envelope = std::move(env);
    return p;
  }
};

TEST(ControlGuard, AcceptsWellSignedSummary) {
  GuardHarness h;
  const SegmentSummary s = h.sample();
  const auto env = crypto::sign(h.keys, 0, s.to_bytes());
  std::optional<SegmentSummary> out;
  EXPECT_EQ(h.guard.check_summary(h.carrying(env), out), ControlVerdict::kOk);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->reporter, 0U);
  EXPECT_EQ(out->content, s.content);
}

TEST(ControlGuard, TamperedPayloadIsBadMac) {
  GuardHarness h;
  auto env = crypto::sign(h.keys, 0, h.sample().to_bytes());
  env.payload[env.payload.size() / 2] ^= std::byte{0x40};
  std::optional<SegmentSummary> out;
  EXPECT_EQ(h.guard.check_summary(h.carrying(env), out), ControlVerdict::kBadMac);
  EXPECT_FALSE(out.has_value());
}

TEST(ControlGuard, ForgedTagIsBadMac) {
  GuardHarness h;
  auto env = crypto::sign(h.keys, 0, h.sample().to_bytes());
  env.tag ^= 1;
  std::optional<SegmentSummary> out;
  EXPECT_EQ(h.guard.check_summary(h.carrying(env), out), ControlVerdict::kBadMac);
}

TEST(ControlGuard, WrongSignerIsSignerMismatch) {
  GuardHarness h;
  // Well-signed by router 1 — but the payload claims reporter 0. An
  // attacker can always sign with its OWN key; it must not be able to
  // speak for another router.
  const auto env = crypto::sign(h.keys, 1, h.sample().to_bytes());
  std::optional<SegmentSummary> out;
  EXPECT_EQ(h.guard.check_summary(h.carrying(env), out), ControlVerdict::kSignerMismatch);
  EXPECT_FALSE(out.has_value());
}

TEST(ControlGuard, GarbagePayloadIsMalformed) {
  GuardHarness h;
  const std::vector<std::byte> junk{std::byte{0xFF}, std::byte{0xEE}, std::byte{0x01}};
  const auto env = crypto::sign(h.keys, 0, junk);  // MAC verifies, decode cannot
  std::optional<SegmentSummary> out;
  EXPECT_EQ(h.guard.check_summary(h.carrying(env), out), ControlVerdict::kMalformed);
}

TEST(ControlGuard, VerdictStaysOnTheObjectAndNotOnItsCopies) {
  GuardHarness h;
  SegmentSummaryPayload payload = h.carrying(crypto::sign(h.keys, 0, h.sample().to_bytes()));
  std::optional<SegmentSummaryView> view;
  EXPECT_FALSE(payload.cache.judged());
  EXPECT_EQ(h.guard.check_summary(payload, view), ControlVerdict::kOk);
  EXPECT_TRUE(payload.cache.judged());
  // Writing a judged payload in place breaks the rule that payloads are
  // written only before their first send: the object keeps its verdict,
  // which is why no attack may do it.
  payload.envelope.tag ^= 1;
  EXPECT_EQ(h.guard.check_summary(payload, view), ControlVerdict::kOk);
  // A copy, or an assignment, starts unjudged and is checked in full.
  const SegmentSummaryPayload copy = payload;
  EXPECT_FALSE(copy.cache.judged());
  EXPECT_EQ(h.guard.check_summary(copy, view), ControlVerdict::kBadMac);
  payload.cache = copy.cache;
  EXPECT_FALSE(payload.cache.judged());
  EXPECT_EQ(h.guard.check_summary(payload, view), ControlVerdict::kBadMac);
  // A failing verdict is kept as well; the view stays empty on a hit.
  view.reset();
  EXPECT_EQ(h.guard.check_summary(payload, view), ControlVerdict::kBadMac);
  EXPECT_FALSE(view.has_value());
}

TEST(ControlGuard, RoundWindowRejectsStaleAndFuture) {
  GuardHarness h;
  std::int64_t margin = -1;
  EXPECT_EQ(h.guard.admit_round(5, 4, 5), ControlVerdict::kOk);
  EXPECT_EQ(h.guard.admit_round(6, 4, 5), ControlVerdict::kOk);  // next open round
  EXPECT_EQ(h.guard.admit_round(4, 4, 5, &margin), ControlVerdict::kStale);
  EXPECT_EQ(margin, 0);  // at the watermark: plausibly a late retransmit
  EXPECT_EQ(h.guard.admit_round(1, 4, 5, &margin), ControlVerdict::kStale);
  EXPECT_EQ(margin, 3);  // far below: warrants suspicion
  EXPECT_GE(margin, ControlGuard::kSuspectMargin);
  EXPECT_EQ(h.guard.admit_round(7, 4, 5), ControlVerdict::kFuture);
}

TEST(ControlGuard, RejectionsAreCountedPerVerdict) {
  obs::TraceSink sink;
  GuardHarness h;
  h.net.sim().set_trace(&sink);
  h.guard.accept();
  h.guard.reject(0, 1, 3, ControlVerdict::kBadMac, "t");
  h.guard.reject(0, 1, 3, ControlVerdict::kBadMac, "t");
  h.guard.reject(0, util::kInvalidNode, 3, ControlVerdict::kStale, "t");
  h.guard.reject(0, 1, 3, ControlVerdict::kMalformed, "t");
  const ByzantineStats& s = h.guard.stats();
  EXPECT_EQ(s.accepted, 1U);
  EXPECT_EQ(s.rejected_bad_mac, 2U);
  EXPECT_EQ(s.rejected_stale, 1U);
  EXPECT_EQ(s.rejected_malformed, 1U);
  EXPECT_EQ(s.rejected(), 4U);
#if FATIH_TRACE
  // Each rejection is traced with its verdict as the value.
  const auto events =
      testing::traced(sink, obs::TraceSource::kPi2, obs::TraceCode::kControlRejected);
  const auto rejected = [&events](ControlVerdict v) {
    return static_cast<std::uint64_t>(
        std::count_if(events.begin(), events.end(), [v](const obs::TraceEvent& ev) {
          return ev.value == static_cast<std::uint64_t>(v);
        }));
  };
  EXPECT_EQ(rejected(ControlVerdict::kBadMac), s.rejected_bad_mac);
  EXPECT_EQ(rejected(ControlVerdict::kSignerMismatch), s.rejected_signer_mismatch);
  EXPECT_EQ(rejected(ControlVerdict::kMalformed), s.rejected_malformed);
  EXPECT_EQ(rejected(ControlVerdict::kStale), s.rejected_stale);
  EXPECT_EQ(rejected(ControlVerdict::kFuture), s.rejected_future);
  EXPECT_EQ(events.size(), s.rejected());
#endif  // FATIH_TRACE
}

TEST(ControlGuard, VerdictsPerSignerIdArePinned) {
  // A guard built after its network: signer ids inside the network, two
  // past it and kInvalidNode, each signed correctly, with a payload byte
  // flipped and with the tag flipped, through all three checks.
  sim::Network net{3};
  net.add_router("a");
  net.add_router("b");
  net.add_host("h");
  const crypto::KeyRegistry keys{501};
  const ControlGuard guard{net, keys, obs::TraceSource::kPi2};
  std::vector<NodeId> signers;
  for (NodeId id = 0; id < net.node_count() + 2; ++id) signers.push_back(id);
  signers.push_back(util::kInvalidNode);

  const auto variants = [&keys](NodeId signer, std::vector<std::byte> payload) {
    std::array<crypto::SignedEnvelope, 3> envs;
    envs.fill(crypto::sign(keys, signer, std::move(payload)));
    envs[1].payload[envs[1].payload.size() / 2] ^= std::byte{0x40};
    envs[2].tag ^= 1;
    return envs;
  };
  std::vector<std::string> got;
  for (NodeId id : signers) {
    const std::string name = id == util::kInvalidNode ? "invalid" : std::to_string(id);
    SegmentSummary summary;
    summary.reporter = id;
    summary.segment = routing::PathSegment{0, 1};
    summary.round = 3;
    summary.content = {11, 22, 33};
    ChiReport report;
    report.reporter = id;
    report.queue_owner = 0;
    report.queue_peer = 1;
    report.round = 3;
    Accusation accusation;
    accusation.accuser = id;
    accusation.accused = routing::PathSegment{1};
    accusation.round = 3;
    accusation.cause = "test";
    std::string line = name + " summary";
    for (auto& env : variants(id, summary.to_bytes())) {
      SegmentSummaryPayload payload;
      payload.envelope = std::move(env);
      std::optional<SegmentSummaryView> out;
      line += std::string(" ") + to_string(guard.check_summary(payload, out));
    }
    got.push_back(line);
    line = name + " report";
    for (auto& env : variants(id, report.to_bytes())) {
      ChiReportPayload payload;
      payload.envelope = std::move(env);
      std::optional<ChiReport> out;
      line += std::string(" ") + to_string(guard.check_report(payload, out));
    }
    got.push_back(line);
    line = name + " accusation";
    for (auto& env : variants(id, accusation.to_bytes())) {
      AccusationPayload payload;
      payload.envelope = std::move(env);
      std::optional<Accusation> out;
      line += std::string(" ") + to_string(guard.check_accusation(payload, out));
    }
    got.push_back(line);
  }
  std::vector<std::string> expected;
  for (const char* id : {"0", "1", "2", "3", "4"}) {
    for (const char* kind : {" summary", " report", " accusation"}) {
      expected.push_back(std::string(id) + kind + " ok bad-mac bad-mac");
    }
  }
  for (const char* kind : {" summary", " report", " accusation"}) {
    expected.push_back(std::string("invalid") + kind + " bad-mac bad-mac bad-mac");
  }
  EXPECT_EQ(got, expected);
}

// ------------------------------------------------------- conviction rules

/// Diamond r0-(r1|r2)-r3: two disjoint two-hop paths, enough honest
/// routers for a quorum, and the shape of the sandwich-frame counterexample.
struct DiamondNet {
  sim::Network net{11};
  crypto::KeyRegistry keys{777};
  std::shared_ptr<routing::RoutingTables> tables;
  std::unique_ptr<PathCache> paths;
  std::unique_ptr<ConvictionEngine> conviction;
  std::vector<std::unique_ptr<traffic::CbrSource>> sources;

  DiamondNet() {
    for (util::NodeId i = 0; i < 4; ++i) net.add_router(util::node_name(i));
    for (auto [a, b] : {std::pair<NodeId, NodeId>{0, 1}, {0, 2}, {1, 3}, {2, 3}}) {
      net.connect(a, b, testing::fast_link());
    }
    tables = std::make_shared<routing::RoutingTables>(routing::Topology::from_network(net));
    routing::install_static_routes(net, *tables);
    paths = std::make_unique<PathCache>(tables);
    for (NodeId i = 0; i < 4; ++i) {
      net.router(i).set_processing_delay(Duration::micros(20), Duration::micros(10));
    }
    conviction = std::make_unique<ConvictionEngine>(net, keys);
  }

  /// Files an evidence-free accusation inside the simulation.
  void vote_at(double t, NodeId accuser, const routing::PathSegment& accused,
               std::int64_t round = 1) {
    net.sim().schedule_at(SimTime::from_seconds(t), [this, accuser, accused, round] {
      conviction->accuse(accuser, static_cast<std::uint8_t>(obs::TraceSource::kPi2), accused,
                         round, "test-vote");
    });
  }

  void run(double seconds = 2.0) { net.sim().run_until(SimTime::from_seconds(seconds)); }
};

TEST(ConvictionEngine, SingleLiarCannotConvict) {
  DiamondNet d;
  for (int i = 0; i < 5; ++i) d.vote_at(0.1 + 0.1 * i, 2, routing::PathSegment{1}, i);
  d.run();
  // Five rounds of lies are still ONE distinct witness.
  EXPECT_GT(d.conviction->accusations_accepted(), 0U);
  EXPECT_FALSE(d.conviction->convicted(1));
  EXPECT_TRUE(d.conviction->convictions().empty());
}

TEST(ConvictionEngine, ColludingPairCannotConvict) {
  DiamondNet d;
  for (int i = 0; i < 3; ++i) {
    d.vote_at(0.1 + 0.1 * i, 0, routing::PathSegment{3}, i);
    d.vote_at(0.12 + 0.1 * i, 2, routing::PathSegment{3}, i);
  }
  d.run();
  EXPECT_FALSE(d.conviction->convicted(3));
  EXPECT_TRUE(d.conviction->convictions().empty());
}

TEST(ConvictionEngine, SelfVoteDoesNotCountTowardQuorum) {
  DiamondNet d;
  d.vote_at(0.1, 0, routing::PathSegment{3});
  d.vote_at(0.2, 1, routing::PathSegment{3});
  d.vote_at(0.3, 3, routing::PathSegment{3});  // the accused "confessing" a vote
  d.run();
  // Two distinct third-party witnesses plus a self-vote: below quorum.
  EXPECT_FALSE(d.conviction->convicted(3));
}

TEST(ConvictionEngine, WitnessQuorumConvicts) {
  obs::TraceSink sink;
  DiamondNet d;
  d.net.sim().set_trace(&sink);
  d.vote_at(0.1, 0, routing::PathSegment{3});
  d.vote_at(0.2, 1, routing::PathSegment{3});
  d.vote_at(0.3, 2, routing::PathSegment{3});
  d.run();
  ASSERT_TRUE(d.conviction->convicted(3));
  ASSERT_EQ(d.conviction->convictions().size(), 1U);
  const Conviction& c = d.conviction->convictions().front();
  EXPECT_EQ(c.basis, "witness-quorum");
  EXPECT_EQ(c.witnesses.size(), 3U);
#if FATIH_TRACE
  // The ledger's counts equal its accusation and conviction events.
  constexpr obs::TraceSource kSrc = obs::TraceSource::kConviction;
  EXPECT_EQ(testing::traced(sink, kSrc, obs::TraceCode::kAccusation).size(),
            d.conviction->accusations_accepted());
  EXPECT_EQ(testing::traced(sink, kSrc, obs::TraceCode::kConviction).size(),
            d.conviction->convictions().size());
#endif  // FATIH_TRACE
}

TEST(ConvictionEngine, Precision2AccusationsNeverConvict) {
  // The sandwich frame: colluders r0 and r3 sandwich honest r1 and make
  // both adjacent pairs look faulty. Any rule intersecting pair
  // accusations would convict r1 — so pairs must carry zero conviction
  // weight no matter how many accusers repeat them.
  DiamondNet d;
  for (int i = 0; i < 4; ++i) {
    d.vote_at(0.1 + 0.1 * i, 0, routing::PathSegment{0, 1}, i);
    d.vote_at(0.12 + 0.1 * i, 3, routing::PathSegment{1, 3}, i);
    d.vote_at(0.14 + 0.1 * i, 2, routing::PathSegment{0, 1}, i);
  }
  d.run();
  EXPECT_GT(d.conviction->accusations_accepted(), 0U);
  EXPECT_TRUE(d.conviction->convictions().empty());
}

TEST(ConvictionEngine, EquivocationProofConvictsSigner) {
  DiamondNet d;
  // Two genuinely signed, conflicting statements for the same (reporter,
  // segment, round): only router 1's key can produce this pair, so it is
  // self-incriminating no matter who files it.
  SegmentSummary a;
  a.reporter = 1;
  a.segment = routing::PathSegment{0, 1, 3};
  a.round = 2;
  a.counters.packets = 10;
  SegmentSummary b = a;
  b.counters.packets = 99;
  std::vector<crypto::SignedEnvelope> proof{crypto::sign(d.keys, 1, a.to_bytes()),
                                            crypto::sign(d.keys, 1, b.to_bytes())};
  NodeId culprit = util::kInvalidNode;
  EXPECT_TRUE(valid_equivocation_proof(d.keys, proof, &culprit));
  EXPECT_EQ(culprit, 1U);
  d.net.sim().schedule_at(SimTime::from_seconds(0.1), [&d, proof] {
    d.conviction->accuse(0, static_cast<std::uint8_t>(obs::TraceSource::kPi2),
                         routing::PathSegment{1}, 2, "equivocation", proof);
  });
  d.run();
  ASSERT_TRUE(d.conviction->convicted(1));
  EXPECT_EQ(d.conviction->convictions().front().basis, "equivocation-proof");
}

TEST(ConvictionEngine, ByteIdenticalEnvelopesAreNoProof) {
  const crypto::KeyRegistry keys{777};
  SegmentSummary a;
  a.reporter = 1;
  a.segment = routing::PathSegment{0, 1, 3};
  a.round = 2;
  a.counters.packets = 10;
  // One genuinely signed statement, twice: a copy of it, not a conflict.
  const crypto::SignedEnvelope env = crypto::sign(keys, 1, a.to_bytes());
  const std::vector<crypto::SignedEnvelope> twice{env, env};
  NodeId culprit = util::kInvalidNode;
  EXPECT_FALSE(valid_equivocation_proof(keys, twice, &culprit));
  EXPECT_EQ(culprit, util::kInvalidNode);
  // A statement that differs in its last payload byte is one.
  SegmentSummary b = a;
  b.bloom_hashes = 1u << 24;  // little-endian: the last of its four bytes
  const std::vector<crypto::SignedEnvelope> pair{env, crypto::sign(keys, 1, b.to_bytes())};
  ASSERT_EQ(pair[0].payload.size(), pair[1].payload.size());
  EXPECT_TRUE(valid_equivocation_proof(keys, pair, &culprit));
  EXPECT_EQ(culprit, 1U);
}

TEST(ConvictionEngine, FabricatedProofConvictsTheAccuser) {
  DiamondNet d;
  // r2 ships an "equivocation proof" it cannot actually sign: envelopes
  // under r1's name with invented tags. The accusation itself is signed by
  // r2, so the bad proof convicts r2 — and never r1.
  std::vector<crypto::SignedEnvelope> fake(2);
  for (std::size_t i = 0; i < 2; ++i) {
    fake[i].signer = 1;
    fake[i].payload = {std::byte{static_cast<unsigned char>(i)}, std::byte{0xBA}};
    fake[i].tag = 0xFA4EFA4E;
  }
  NodeId culprit = util::kInvalidNode;
  EXPECT_FALSE(valid_equivocation_proof(d.keys, fake, &culprit));
  d.net.sim().schedule_at(SimTime::from_seconds(0.1), [&d, fake] {
    d.conviction->accuse(2, static_cast<std::uint8_t>(obs::TraceSource::kPi2),
                         routing::PathSegment{1}, 2, "framed", fake);
  });
  d.run();
  EXPECT_FALSE(d.conviction->convicted(1));
  ASSERT_TRUE(d.conviction->convicted(2));
  EXPECT_EQ(d.conviction->convictions().front().basis, "forged-evidence");
}

TEST(ConvictionEngine, UnsignedAccusationNeverEntersLedger) {
  DiamondNet d;
  d.net.sim().schedule_at(SimTime::from_seconds(0.1), [&d] {
    Accusation acc;
    acc.accuser = 2;
    acc.detector = static_cast<std::uint8_t>(obs::TraceSource::kPi2);
    acc.accused = routing::PathSegment{1};
    acc.round = 1;
    acc.cause = "forged";
    crypto::SignedEnvelope env;  // fabricated tag, never signed
    env.signer = 2;
    env.payload = acc.to_bytes();
    env.tag = 0xDEADC0DE;
    d.conviction->originate_raw(2, acc, std::move(env));
  });
  d.run();
  EXPECT_EQ(d.conviction->accusations_accepted(), 0U);
  EXPECT_GT(d.conviction->stats().rejected_bad_mac, 0U);
  EXPECT_TRUE(d.conviction->convictions().empty());
}

// ----------------------------------------------- framing acceptance suite

/// Diamond + Pi(k+2) with clean traffic and one liar r2 framing honest r1
/// with fabricated proofs. Returns a comparable run snapshot.
struct FramingSnapshot {
  std::vector<std::tuple<NodeId, std::int64_t, std::string>> convictions{};
  std::uint64_t accusations_accepted = 0;
  std::uint64_t filed = 0;
  std::size_t suspicions = 0;
  bool honest_convicted = false;

  bool operator==(const FramingSnapshot&) const = default;
};

FramingSnapshot run_pik2_framing() {
  DiamondNet d;
  Pik2Config cfg;
  cfg.clock = RoundClock{SimTime::from_seconds(1), Duration::seconds(1)};
  cfg.k = 1;
  cfg.collect_settle = Duration::millis(150);
  cfg.exchange_timeout = Duration::millis(400);
  cfg.policy = TvPolicy::kContentOrder;
  cfg.thresholds.max_lost_packets = 2;
  cfg.rounds = 4;
  Pik2Engine engine(d.net, d.keys, *d.paths, {0, 3}, cfg);
  engine.set_conviction_engine(d.conviction.get());
  engine.start();
  for (auto [src, dst, flow] :
       {std::tuple<NodeId, NodeId, std::uint32_t>{0, 3, 1}, {3, 0, 2}}) {
    traffic::CbrSource::Config c;
    c.src = src;
    c.dst = dst;
    c.flow_id = flow;
    c.rate_pps = 120;
    c.start = SimTime::from_seconds(1);
    c.stop = SimTime::from_seconds(4.8);
    d.sources.push_back(std::make_unique<traffic::CbrSource>(d.net, c));
  }
  attacks::FalseAccusationAttack::Config fc;
  fc.accusers = {2};
  fc.victim = 1;
  fc.detector = static_cast<std::uint8_t>(obs::TraceSource::kPik2);
  fc.clock = cfg.clock;
  fc.start = SimTime::from_seconds(2.1);
  fc.period = Duration::seconds(1);
  fc.shots = 2;
  fc.forge_evidence = true;
  attacks::FalseAccusationAttack framing(d.net, d.keys, *d.conviction, fc);
  d.run(6.5);

  FramingSnapshot snap;
  for (const Conviction& c : d.conviction->convictions()) {
    snap.convictions.emplace_back(c.accused, c.round, c.basis);
    snap.honest_convicted |= c.accused != 2;
  }
  snap.accusations_accepted = d.conviction->accusations_accepted();
  snap.filed = framing.filed();
  snap.suspicions = engine.suspicions().size();
  return snap;
}

TEST(FramingAcceptance, Pik2FramedHonestRouterNeverConvictedAttackerIs) {
  const FramingSnapshot snap = run_pik2_framing();
  EXPECT_EQ(snap.filed, 2U);
  EXPECT_FALSE(snap.honest_convicted);
  ASSERT_FALSE(snap.convictions.empty());
  EXPECT_EQ(std::get<0>(snap.convictions.front()), 2U);
  EXPECT_EQ(std::get<2>(snap.convictions.front()), "forged-evidence");
  // Clean traffic: the framing never leaks into the detector's own output.
  EXPECT_EQ(snap.suspicions, 0U);
}

TEST(FramingAcceptance, RunTwiceIsDeterministic) {
  EXPECT_EQ(run_pik2_framing(), run_pik2_framing());
}

/// The two ways r2 forges a Π2 summary under honest r1's name: a
/// fabricated MAC (kBadMac), or a valid MAC under r2's own key, whose
/// signer then contradicts the claimed reporter (kSignerMismatch).
enum class Forgery { kBadMac, kOwnKey };

void PrintTo(Forgery f, std::ostream* os) { *os << (f == Forgery::kBadMac ? "BadMac" : "OwnKey"); }

class Pi2ForgedFlood : public ::testing::TestWithParam<Forgery> {};

TEST_P(Pi2ForgedFlood, NeighboursNameForgerNobodyConvicted) {
  // Diamond + Pi2: r2 floods a summary under r1's name once per round,
  // to r0 and r3. Each rejects every copy and suspects the hop that
  // delivered it, r2, at precision 1. Two honest neighbours are one short
  // of the witness quorum, so nobody is convicted.
  DiamondNet d;
  Pi2Config cfg;
  cfg.clock = RoundClock{SimTime::from_seconds(1), Duration::seconds(1)};
  cfg.k = 1;
  cfg.collect_settle = Duration::millis(150);
  cfg.evaluate_settle = Duration::millis(400);
  cfg.policy = TvPolicy::kContentOrder;
  cfg.thresholds.max_lost_packets = 2;
  cfg.rounds = 4;
  Pi2Engine engine(d.net, d.keys, *d.paths, {0, 3}, cfg);
  engine.set_conviction_engine(d.conviction.get());
  engine.start();
  for (auto [src, dst, flow] :
       {std::tuple<NodeId, NodeId, std::uint32_t>{0, 3, 1}, {3, 0, 2}}) {
    traffic::CbrSource::Config c;
    c.src = src;
    c.dst = dst;
    c.flow_id = flow;
    c.rate_pps = 120;
    c.start = SimTime::from_seconds(1);
    c.stop = SimTime::from_seconds(4.8);
    d.sources.push_back(std::make_unique<traffic::CbrSource>(d.net, c));
  }
  attacks::ForgedControlInjector::Config fc;
  fc.at = 2;
  fc.victim = 1;
  fc.kind = kKindSummaryFlood;
  fc.segment = engine.monitored_by(1).empty() ? routing::PathSegment{0, 1, 3}
                                              : engine.monitored_by(1).front();
  fc.clock = cfg.clock;
  fc.start = SimTime::from_seconds(2.05);
  fc.period = Duration::seconds(1);
  fc.shots = 3;
  fc.sign_with_own_key = GetParam() == Forgery::kOwnKey;
  attacks::ForgedControlInjector inj(d.net, d.keys, fc);
  d.run(6.5);

  EXPECT_EQ(inj.injected(), 3U);
  EXPECT_TRUE(d.conviction->convictions().empty());
  // 3 shots x 2 neighbours, each rejected for the forgery's own reason.
  const bool bad_mac = GetParam() == Forgery::kBadMac;
  EXPECT_EQ(engine.guard_stats().rejected_bad_mac, bad_mac ? 6U : 0U);
  EXPECT_EQ(engine.guard_stats().rejected_signer_mismatch, bad_mac ? 0U : 6U);
  std::set<std::pair<NodeId, std::int64_t>> named_forger;  // (reporter, round)
  for (const Suspicion& s : engine.suspicions()) {
    EXPECT_FALSE(s.segment.contains(1)) << s.to_string();
    if (s.segment == routing::PathSegment{2} && s.cause == "invalid-control") {
      named_forger.emplace(s.reporter, cfg.clock.round_of(s.interval.begin));
    }
  }
  // Both neighbours, in the rounds of the three shots: [2 s, 5 s).
  const std::set<std::pair<NodeId, std::int64_t>> want{{0, 1}, {0, 2}, {0, 3},
                                                       {3, 1}, {3, 2}, {3, 3}};
  EXPECT_EQ(named_forger, want);
}

INSTANTIATE_TEST_SUITE_P(FramingAcceptance, Pi2ForgedFlood,
                         ::testing::Values(Forgery::kBadMac, Forgery::kOwnKey));

/// Π2's guard accounting on a 5-router line, four rounds of CBR both
/// ways. With `inject_stale`, two routers re-flood summaries for closed
/// rounds at 3.6 s, after round 2 closed at 3.45 s: r2 for round 0, two
/// below the watermark (suspected by its neighbours), and r1 for round 2,
/// at the watermark (only counted).
struct Pi2GuardRun {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_stale = 0;
  std::vector<std::string> suspicions{};
};

Pi2GuardRun run_pi2_guard_fixture(bool inject_stale) {
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
  engine.start();
  if (inject_stale) {
    line.net.sim().schedule_at(SimTime::from_seconds(3.6), [&engine] {
      for (auto [from, round] : {std::pair<NodeId, std::int64_t>{2, 0}, {1, 2}}) {
        SegmentSummary old;
        old.reporter = from;
        old.segment = engine.monitored_by(from).front();
        old.round = round;
        engine.inject_summary(from, old);
      }
    });
  }
  line.net.sim().run_until(SimTime::from_seconds(6));
  Pi2GuardRun run;
  run.accepted = engine.guard_stats().accepted;
  run.rejected_stale = engine.guard_stats().rejected_stale;
  for (const Suspicion& s : engine.suspicions()) run.suspicions.push_back(s.to_string());
  return run;
}

TEST(Pi2Guard, CleanRunAcceptsEachDeliveredCopyOnce) {
  const Pi2GuardRun run = run_pi2_guard_fixture(false);
  // 6 segments x 3 reporters x 4 rounds, delivered at each of 5 routers.
  EXPECT_EQ(run.accepted, 360U);
  EXPECT_EQ(run.rejected_stale, 0U);
  EXPECT_TRUE(run.suspicions.empty());
}

TEST(Pi2Guard, OriginatorVetsItsOwnStaleSummary) {
  const Pi2GuardRun run = run_pi2_guard_fixture(true);
  // Neither originator accepts its own copy, and each stale copy is
  // rejected at both of its originator's neighbours.
  EXPECT_EQ(run.accepted, 360U);
  EXPECT_EQ(run.rejected_stale, 4U);
  const std::vector<std::string> expected = {
      "r1 suspects <r2> during [3.000000s,4.000000s) cause=stale-replay conf=1.0000",
      "r3 suspects <r2> during [3.000000s,4.000000s) cause=stale-replay conf=1.0000",
  };
  EXPECT_EQ(run.suspicions, expected);
}

TEST(Pi2Guard, TamperedCopyOfAVettedSummaryIsRejectedAndBlamed) {
  // The first flooded summary r2 receives from r1 has already passed the
  // guard at honest r0 or r1. r2 sends that same object on to r3 as a
  // routed packet, so its tamper filter deep-copies it with one payload
  // byte flipped. The copy is a new object: r3 must judge it afresh,
  // count a bad MAC and suspect r2 alone.
  LineNet line{5};
  Pi2Config cfg;
  cfg.clock = RoundClock{SimTime::origin(), Duration::seconds(1)};
  cfg.k = 1;
  cfg.collect_settle = Duration::millis(150);
  cfg.evaluate_settle = Duration::millis(300);
  cfg.policy = TvPolicy::kContentOrder;
  cfg.rounds = 2;
  Pi2Engine engine(line.net, line.keys, *line.paths, line.terminals(), cfg);
  line.add_cbr(0, 4, 1, 200, SimTime::from_seconds(0.05), SimTime::from_seconds(1.9));
  engine.start();
  attacks::ControlTamperAttack::Config tc;
  tc.kinds = {kKindSummaryFlood};
  auto tamper = std::make_shared<attacks::ControlTamperAttack>(tc);
  line.net.router(2).set_forward_filter(tamper);
  bool resent = false;
  line.net.node(2).add_receive_tap([&line, &resent](const sim::Packet& p, NodeId prev,
                                                    SimTime now) {
    if (resent || prev != 1 || p.control == nullptr) return;
    if (p.control->kind() != kKindSummaryFlood) return;
    resent = true;
    sim::PacketHeader hdr;
    hdr.src = 2;
    hdr.dst = 3;
    hdr.proto = sim::Protocol::kControl;
    sim::Packet copy = line.net.make_packet(hdr, p.size_bytes);
    copy.control = p.control;  // the object r0 and r1 already vetted
    line.net.sim().schedule_at(now, [&line, copy] { line.net.router(2).originate(copy); });
  });
  line.net.sim().run_until(SimTime::from_seconds(3));

  EXPECT_EQ(tamper->tampered(), 1U);
  EXPECT_EQ(engine.guard_stats().rejected_bad_mac, 1U);
  EXPECT_EQ(engine.guard_stats().rejected(), 1U);
  std::vector<std::string> suspicions;
  for (const Suspicion& s : engine.suspicions()) suspicions.push_back(s.to_string());
  const std::vector<std::string> expected = {
      "r3 suspects <r2> during [1.000000s,2.000000s) cause=invalid-control conf=1.0000",
  };
  EXPECT_EQ(suspicions, expected);
}

TEST(Pi2Guard, RoutedFloodCopyIsDroppedWithoutBlamingTheRelay) {
  // r0 forges a summary under r3's name and addresses it to r2, two hops
  // away, so honest r1 routes it there. Flood hop copies are always sent
  // neighbour-direct; a routed one says nothing about the hop that handed
  // it over. r2 must drop it unjudged, not blame r1.
  LineNet line{5};
  Pi2Config cfg;
  cfg.clock = RoundClock{SimTime::origin(), Duration::seconds(1)};
  cfg.k = 1;
  cfg.collect_settle = Duration::millis(150);
  cfg.evaluate_settle = Duration::millis(300);
  cfg.policy = TvPolicy::kContentOrder;
  cfg.rounds = 2;
  Pi2Engine engine(line.net, line.keys, *line.paths, line.terminals(), cfg);
  line.add_cbr(0, 4, 1, 200, SimTime::from_seconds(0.05), SimTime::from_seconds(1.9));
  engine.start();
  attacks::ForgedControlInjector::Config fc;
  fc.at = 0;
  fc.victim = 3;
  fc.kind = kKindSummaryFlood;
  fc.dst = 2;
  ASSERT_FALSE(engine.monitored_by(3).empty());
  fc.segment = engine.monitored_by(3).front();
  fc.clock = cfg.clock;
  fc.start = SimTime::from_seconds(1.05);
  attacks::ForgedControlInjector inj(line.net, line.keys, fc);
  line.net.sim().run_until(SimTime::from_seconds(3));

  EXPECT_EQ(inj.injected(), 1U);
  EXPECT_EQ(engine.guard_stats().rejected(), 0U);
  for (const Suspicion& s : engine.suspicions()) {
    EXPECT_FALSE(s.segment.contains(1)) << s.to_string();
  }
}

TEST(ChiGuard, RejectedReportTracesNoRound) {
  // A report whose MAC fails has no authenticated round: the round in the
  // copy riding beside the envelope is the sender's choice, so the
  // rejection is traced with round -1.
  obs::TraceSink sink;
  LineNet line{3};
  line.net.sim().set_trace(&sink);
  ChiConfig cfg;
  cfg.clock = RoundClock{SimTime::origin(), Duration::seconds(1)};
  QueueValidator validator(line.net, line.keys, *line.paths, /*queue_owner=*/1,
                           /*queue_peer=*/2, cfg);
  ChiReport report;
  report.reporter = 0;
  report.queue_owner = 1;
  report.queue_peer = 2;
  report.round = 99;
  ChiReportPayload payload;
  payload.envelope = crypto::sign(line.keys, 0, report.to_bytes());
  payload.envelope.tag ^= 1;
  payload.report = report;
  validator.on_report(payload);
  EXPECT_EQ(validator.guard_stats().rejected_bad_mac, 1U);
  EXPECT_EQ(validator.guard_stats().rejected(), 1U);
#if FATIH_TRACE
  const auto rejected =
      testing::traced(sink, obs::TraceSource::kChi, obs::TraceCode::kControlRejected);
  ASSERT_EQ(rejected.size(), 1U);
  EXPECT_EQ(rejected[0].round, -1);
#endif  // FATIH_TRACE
}

TEST(FramingAcceptance, ChiLyingNeighborAttributedNotTheOwner) {
  // chi's framing defense: neighbor r0 pads its report with phantom
  // entries to pin "drops" on honest queue owner r1. Every unexplained
  // drop traces to r0's report alone, so suspicions name the {r0, r1}
  // pair — never r1 by itself — and a single witness cannot convict.
  LineNet line{3};
  std::unique_ptr<ConvictionEngine> conviction =
      std::make_unique<ConvictionEngine>(line.net, line.keys);
  ChiConfig cfg;
  cfg.clock = RoundClock{SimTime::origin(), Duration::seconds(1)};
  cfg.settle = Duration::millis(400);
  cfg.grace = Duration::millis(200);
  cfg.learning_rounds = 2;
  cfg.rounds = 6;
  ChiEngine engine(line.net, line.keys, *line.paths, cfg);
  QueueValidator& validator = engine.monitor_queue(1, 2);
  engine.set_conviction_engine(conviction.get());
  const RoundClock clock = cfg.clock;
  validator.set_report_mutator(0, [clock](ChiReport& r) {
    if (r.round < 3 || r.part != 0) return true;
    for (std::uint32_t i = 0; i < 20; ++i) {
      ChiRecord phantom;
      phantom.fp = 0xF00D0000ULL + i;
      phantom.size_bytes = 900;
      phantom.flow_id = 7;
      phantom.ts = clock.interval_of(r.round).begin + Duration::millis(5 * (i + 1));
      r.records.push_back(phantom);
    }
    return true;
  });
  line.add_cbr(0, 2, 1, 250, SimTime::from_seconds(0.05), SimTime::from_seconds(6.9));
  engine.start();
  line.net.sim().run_until(SimTime::from_seconds(8));

  const auto& suspicions = validator.suspicions();
  ASSERT_FALSE(suspicions.empty());
  for (const Suspicion& s : suspicions) {
    EXPECT_TRUE(s.segment.contains(0U)) << "liar not named: " << s.to_string();
  }
  EXPECT_FALSE(conviction->convicted(1));
  EXPECT_TRUE(conviction->convictions().empty());
}

}  // namespace
}  // namespace fatih::detection

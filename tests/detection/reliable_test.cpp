#include "detection/reliable.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "attacks/attacks.hpp"
#include "detection/chi.hpp"
#include "detection/pi2.hpp"
#include "detection/pik2.hpp"
#include "detection/spec.hpp"
#include "obs/trace.hpp"
#include "tests/detection/test_net.hpp"
#include "tests/detection/trace_counts.hpp"

namespace fatih::detection {
namespace {

using testing::LineNet;
using util::Duration;
using util::NodeId;
using util::SimTime;

constexpr std::uint16_t kTestKind = 0x2F10;

struct MsgPayload final : sim::ControlPayload {
  std::uint64_t id = 0;
  [[nodiscard]] std::uint16_t kind() const override { return kTestKind; }
};

ReliableConfig fast_reliable() {
  ReliableConfig cfg;
  cfg.enabled = true;
  cfg.initial_rto = Duration::millis(25);
  cfg.min_rto = Duration::millis(10);
  cfg.max_rto = Duration::millis(100);
  cfg.max_retries = 7;
  return cfg;
}

attacks::ControlLinkFaults::Config uniform_control_loss(double fraction,
                                                        std::uint64_t seed = 42) {
  attacks::ControlLinkFaults::Config cfg;
  cfg.drop_fraction = fraction;
  cfg.seed = seed;
  return cfg;
}

/// A 3-router line with static routes and one channel for kTestKind.
struct ChannelHarness {
  LineNet line{3};
  std::unique_ptr<ReliableChannel> channel;
  std::map<std::pair<NodeId, std::uint64_t>, int> delivered;
  std::vector<std::uint64_t> failed;

  explicit ChannelHarness(ReliableConfig cfg = fast_reliable()) {
    channel = std::make_unique<ReliableChannel>(line.net, line.keys, kTestKind, cfg);
    channel->set_key_fn(
        [](const sim::ControlPayload& p) { return static_cast<const MsgPayload&>(p).id; });
    channel->set_delivery_fn([this](NodeId at, const sim::ControlPayload& p, SimTime) {
      ++delivered[{at, static_cast<const MsgPayload&>(p).id}];
    });
    channel->set_failure_fn([this](NodeId, NodeId, const sim::ControlPayload& p, SimTime) {
      failed.push_back(static_cast<const MsgPayload&>(p).id);
    });
  }

  void send_at(double t, NodeId from, NodeId to, std::uint64_t id) {
    line.net.sim().schedule_at(SimTime::from_seconds(t), [this, from, to, id] {
      auto payload = std::make_shared<MsgPayload>();
      payload->id = id;
      channel->send(from, to, payload, 64);
    });
  }

  void run(double seconds = 5.0) {
    line.net.sim().run_until(SimTime::from_seconds(seconds));
  }
};

TEST(ReliableChannel, CleanDeliveryNeedsNoRetransmit) {
  ChannelHarness h;
  for (std::uint64_t i = 0; i < 5; ++i) h.send_at(0.1 * (1.0 + i), 0, 2, i);
  h.run();
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ((h.delivered[{2, i}]), 1) << i;
  EXPECT_EQ(h.channel->stats().messages, 5U);
  EXPECT_EQ(h.channel->stats().transmissions, 5U);
  EXPECT_EQ(h.channel->stats().retransmits, 0U);
  EXPECT_EQ(h.channel->stats().failures, 0U);
  EXPECT_EQ(h.channel->stats().acks_received, 5U);
  EXPECT_EQ(h.channel->in_flight(), 0U);
  EXPECT_TRUE(h.failed.empty());
}

TEST(ReliableChannel, RetransmitsThroughHeavyLoss) {
  ChannelHarness h;
  attacks::ControlLinkFaults faults(h.line.net, uniform_control_loss(0.4));
  for (std::uint64_t i = 0; i < 20; ++i) h.send_at(0.1 + 0.05 * i, 0, 1, i);
  h.run(6.0);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ((h.delivered[{1, i}]), 1) << i;
  EXPECT_GT(h.channel->stats().retransmits, 0U);
  EXPECT_EQ(h.channel->in_flight(), 0U);
}

TEST(ReliableChannel, RetryBudgetExhaustionReportsFailure) {
  ChannelHarness h;
  attacks::ControlLinkFaults faults(h.line.net, uniform_control_loss(1.0));
  h.send_at(0.1, 0, 1, 77);
  h.run(4.0);
  EXPECT_TRUE(h.delivered.empty());
  ASSERT_EQ(h.failed.size(), 1U);
  EXPECT_EQ(h.failed[0], 77U);
  // One first send plus the full retry budget, then the channel gave up.
  EXPECT_EQ(h.channel->stats().transmissions, 1U + h.channel->config().max_retries);
  EXPECT_EQ(h.channel->stats().failures, 1U);
  EXPECT_EQ(h.channel->in_flight(), 0U);
}

TEST(ReliableChannel, AckOnlyLossDeliversExactlyOnce) {
  // The adversary suppresses only the acknowledgements: retransmissions
  // keep arriving, but receiver-side dedup must deliver each id once, and
  // acking every copy must eventually settle the sender.
  ChannelHarness h;
  auto loss = uniform_control_loss(0.5);
  loss.match.kinds = {kKindControlAck};
  attacks::ControlLinkFaults faults(h.line.net, loss);
  for (std::uint64_t i = 0; i < 10; ++i) h.send_at(0.1 + 0.05 * i, 0, 1, i);
  h.run(6.0);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ((h.delivered[{1, i}]), 1) << i;
  EXPECT_GT(h.channel->stats().duplicates, 0U);
  EXPECT_EQ(h.channel->stats().failures, 0U);
  EXPECT_EQ(h.channel->in_flight(), 0U);
}

TEST(ReliableChannel, AckArrivingAfterRetryExhaustionIsStale) {
  // Acks crawl: every ack is held back 2 s, far beyond the whole retry
  // schedule. The sender exhausts its budget and reports a failure even
  // though every copy was DELIVERED — the documented ambiguity of a
  // one-way failure report. When the crawling acks finally land, the
  // pending entry is long gone: they must hit the stale-ack early return,
  // not resurrect state or double-count.
  ReliableConfig cfg = fast_reliable();
  cfg.jitter = 0.0;
  cfg.max_retries = 2;
  ChannelHarness h(cfg);
  auto faults = uniform_control_loss(0.0);
  faults.match.kinds = {kKindControlAck};
  faults.delay_fraction = 1.0;
  faults.delay = Duration::seconds(2);
  attacks::ControlLinkFaults injector(h.line.net, faults);
  h.send_at(0.1, 0, 1, 9);
  h.run(5.0);  // well past the delayed-ack arrivals
  EXPECT_EQ((h.delivered[{1, 9}]), 1);  // payload got through, once
  ASSERT_EQ(h.failed.size(), 1U);       // ... but the sender gave up first
  const auto& s = h.channel->stats();
  EXPECT_EQ(s.transmissions, 1U + cfg.max_retries);
  EXPECT_EQ(s.failures, 1U);
  EXPECT_GE(s.acks_sent, 1U);
  // The late acks found nothing pending: none settled a send.
  EXPECT_EQ(s.acks_received, 0U);
  EXPECT_EQ(h.channel->in_flight(), 0U);
}

TEST(ReliableChannel, BackoffCapsAtMaxRto) {
  // Total loss, zero jitter: the retransmit times are exactly the backoff
  // schedule, and the exponential doubling must clamp at max_rto.
  ReliableConfig cfg = fast_reliable();  // rto 25 ms, cap 100 ms
  cfg.jitter = 0.0;
  ChannelHarness h(cfg);
  attacks::ControlLinkFaults injector(h.line.net, uniform_control_loss(1.0));
  std::vector<SimTime> sends;
  h.line.net.router(0).interface_to(1)->add_transmit_tap(
      [&](const sim::Packet& p, SimTime at) {
        if (p.control != nullptr && p.control->kind() == kTestKind) sends.push_back(at);
      });
  h.send_at(0.1, 0, 1, 4);
  h.run(3.0);
  ASSERT_EQ(sends.size(), 1U + cfg.max_retries);
  // Gaps: 25, 50, then pinned to the 100 ms cap.
  EXPECT_EQ(sends[1] - sends[0], Duration::millis(25));
  EXPECT_EQ(sends[2] - sends[1], Duration::millis(50));
  for (std::size_t i = 3; i < sends.size(); ++i) {
    EXPECT_EQ(sends[i] - sends[i - 1], cfg.max_rto) << "gap " << i;
  }
}

TEST(ReliableChannel, DuplicateAckSettlesOnceThenIgnored) {
  // Acks are delayed to 30 ms while the RTO is 25 ms: the sender
  // retransmits once, the receiver dedups the copy but (by design) acks
  // it anyway, so TWO acks for the same key come home. The first settles
  // the send; the second must take the stale-ack path.
  ReliableConfig cfg = fast_reliable();
  cfg.jitter = 0.0;
  ChannelHarness h(cfg);
  auto faults = uniform_control_loss(0.0);
  faults.match.kinds = {kKindControlAck};
  faults.delay_fraction = 1.0;
  faults.delay = Duration::millis(30);
  attacks::ControlLinkFaults injector(h.line.net, faults);
  h.send_at(0.1, 0, 1, 6);
  h.run(2.0);
  EXPECT_EQ((h.delivered[{1, 6}]), 1);
  const auto& s = h.channel->stats();
  EXPECT_EQ(s.retransmits, 1U);
  EXPECT_EQ(s.duplicates, 1U);
  EXPECT_EQ(s.acks_sent, 2U);
  EXPECT_EQ(s.acks_received, 1U);  // only the first ack settled anything
  EXPECT_EQ(s.failures, 0U);
  EXPECT_EQ(h.channel->in_flight(), 0U);
}

TEST(ReliableChannel, SpoofedAckCannotSettleExchange) {
  // The payload path 0 -> 2 is fully blocked, so ONLY an ack could make the
  // exchange look delivered. A malicious r1 spoofs acks claiming r2
  // received the message — one with a garbage tag, one MAC'd under r1's
  // own pairwise key. Neither verifies under (acker=2, addressee=0): the
  // sender must keep retransmitting to budget exhaustion and report the
  // failure, never a phantom delivery.
  ChannelHarness h;
  auto loss = uniform_control_loss(1.0);
  loss.match.kinds = {kTestKind};
  attacks::ControlLinkFaults faults(h.line.net, loss);
  h.send_at(0.1, 0, 2, 5);
  for (double t : {0.15, 0.3, 0.6}) {
    h.line.net.sim().schedule_at(SimTime::from_seconds(t), [&h] {
      const auto forge = [&h](crypto::MacTag tag) {
        auto ack = std::make_shared<ControlAckPayload>();
        ack->acked_kind = kTestKind;
        ack->msg_key = 5;
        ack->acker = 2;
        ack->tag = tag;
        sim::PacketHeader hdr;
        hdr.src = 2;  // spoofed source address, to match the claimed acker
        hdr.dst = 0;
        hdr.proto = sim::Protocol::kControl;
        sim::Packet p = h.line.net.make_packet(hdr, 48);
        p.control = std::move(ack);
        h.line.net.router(1).interface_to(0)->send(p);
      };
      forge(0xBADC0DE);
      forge(ack_tag(h.line.keys, kTestKind, 5, 1, 0));  // r1's own key, wrong identity
    });
  }
  h.run(4.0);
  const auto& s = h.channel->stats();
  EXPECT_TRUE(h.delivered.empty());
  EXPECT_EQ(s.acks_rejected, 6U);  // every forged ack counted and dropped
  EXPECT_EQ(s.acks_received, 0U);  // none settled the pending send
  EXPECT_EQ(s.failures, 1U);
  EXPECT_EQ(s.transmissions, 1U + h.channel->config().max_retries);
  EXPECT_EQ(h.channel->in_flight(), 0U);
}

TEST(ReliableChannel, GenuineAckSettlesDespiteSpoofingNoise) {
  // Same spoofing, healthy network: the genuine receiver's MAC-valid ack
  // settles the exchange exactly once while the forgeries only bump the
  // reject counter.
  ChannelHarness h;
  h.send_at(0.1, 0, 2, 9);
  h.line.net.sim().schedule_at(SimTime::from_seconds(0.11), [&h] {
    auto ack = std::make_shared<ControlAckPayload>();
    ack->acked_kind = kTestKind;
    ack->msg_key = 9;
    ack->acker = 2;
    ack->tag = 0xFEEDFACE;
    sim::PacketHeader hdr;
    hdr.src = 2;
    hdr.dst = 0;
    hdr.proto = sim::Protocol::kControl;
    sim::Packet p = h.line.net.make_packet(hdr, 48);
    p.control = std::move(ack);
    h.line.net.router(1).interface_to(0)->send(p);
  });
  h.run(2.0);
  const auto& s = h.channel->stats();
  EXPECT_EQ((h.delivered[{2, 9}]), 1);
  EXPECT_EQ(s.acks_rejected, 1U);
  EXPECT_EQ(s.acks_received, 1U);
  EXPECT_EQ(s.failures, 0U);
  EXPECT_EQ(h.channel->in_flight(), 0U);
}

#if FATIH_TRACE
TEST(ReliableChannel, RegistryCountersMirrorChannelStats) {
  // The trace records what the channel counts: after a lossy run, each
  // kReliable exchange event count equals the Stats field the channel
  // kept itself.
  obs::TraceSink sink;
  ChannelHarness h;
  h.line.net.sim().set_trace(&sink);
  attacks::ControlLinkFaults faults(h.line.net, uniform_control_loss(0.4));
  for (std::uint64_t i = 0; i < 20; ++i) h.send_at(0.1 + 0.05 * i, 0, 2, i);
  h.run(6.0);
  const auto& s = h.channel->stats();
  EXPECT_GT(s.retransmits, 0U);  // the fault script really bit
  ASSERT_EQ(sink.overwritten(), 0U);
  testing::expect_reliable_traced(sink, s);
}
#endif  // FATIH_TRACE

TEST(ReliableChannel, RtoAdaptsDownOnFastLinks) {
  ChannelHarness h;
  EXPECT_EQ(h.channel->current_rto(0, 1), h.channel->config().initial_rto);
  for (std::uint64_t i = 0; i < 10; ++i) h.send_at(0.1 + 0.05 * i, 0, 1, i);
  h.run(2.0);
  // RTT on a 1 ms link is ~2 ms; Jacobson's estimate must pull the RTO
  // well below the 25 ms prior, floored by min_rto.
  EXPECT_LT(h.channel->current_rto(0, 1), h.channel->config().initial_rto);
  EXPECT_GE(h.channel->current_rto(0, 1), h.channel->config().min_rto);
}

TEST(ReliableChannel, DuplicateInFlightSendSuppressed) {
  ChannelHarness h;
  h.send_at(0.1, 0, 2, 5);
  h.send_at(0.1, 0, 2, 5);
  h.run();
  EXPECT_EQ(h.channel->stats().messages, 1U);
  EXPECT_EQ((h.delivered[{2, 5}]), 1);
}

TEST(ReliableChannel, DirectModeNeedsNoRoutes) {
  // Flood hop copies ride Via::kDirect between adjacent routers in
  // networks that never installed routes; the ack finds its way back via
  // the direct-interface fallback.
  sim::Network net{9};
  net.add_router("a");
  net.add_router("b");
  net.connect(0, 1, testing::fast_link());
  crypto::KeyRegistry keys{777};
  ReliableChannel channel(net, keys, kTestKind, fast_reliable());
  channel.set_key_fn(
      [](const sim::ControlPayload& p) { return static_cast<const MsgPayload&>(p).id; });
  int delivered = 0;
  channel.set_delivery_fn(
      [&delivered](NodeId at, const sim::ControlPayload&, SimTime) { delivered += at == 1; });
  net.sim().schedule_at(SimTime::from_seconds(0.1), [&net, &channel] {
    auto payload = std::make_shared<MsgPayload>();
    payload->id = 1;
    channel.send(0, 1, payload, 64, ReliableChannel::Via::kDirect);
  });
  net.sim().run_until(SimTime::from_seconds(1));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(channel.stats().acks_received, 1U);
  EXPECT_EQ(channel.in_flight(), 0U);
}

TEST(ReliableChannel, LossyRunsAreDeterministic) {
  auto run_once = [] {
    ChannelHarness h;
    attacks::ControlLinkFaults faults(h.line.net, uniform_control_loss(0.4));
    for (std::uint64_t i = 0; i < 20; ++i) h.send_at(0.1 + 0.05 * i, 0, 2, i);
    h.run(6.0);
    const auto& s = h.channel->stats();
    return std::tuple{s.transmissions, s.retransmits, s.failures, s.acks_sent,
                      s.acks_received, s.duplicates, h.delivered, h.failed};
  };
  EXPECT_EQ(run_once(), run_once());
}

// ----------------------------------------------------------- integration

Pi2Config lossy_pi2_config() {
  Pi2Config cfg;
  cfg.clock = RoundClock{SimTime::origin(), Duration::seconds(1)};
  cfg.collect_settle = Duration::millis(150);
  cfg.evaluate_settle = Duration::millis(500);
  cfg.policy = TvPolicy::kContentOrder;
  cfg.rounds = 4;
  cfg.reliable = fast_reliable();
  return cfg;
}

std::vector<std::string> run_pi2_under_loss(double control_loss) {
  LineNet line{5};
  Pi2Engine engine(line.net, line.keys, *line.paths, line.terminals(), lossy_pi2_config());
  line.add_cbr(0, 4, 1, 200, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  line.add_cbr(4, 0, 2, 150, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  engine.start();
  attacks::ControlLinkFaults faults(line.net, uniform_control_loss(control_loss));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  line.net.router(2).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 0.2, SimTime::from_seconds(1), 99));
  line.net.sim().run_until(SimTime::from_seconds(6.5));
  std::vector<std::string> out;
  for (const auto& s : engine.suspicions()) out.push_back(s.to_string());
  return out;
}

TEST(ReliableIntegration, Pi2DetectsDropperUnder20PctControlLoss) {
  // Acceptance scenario: 20% uniform control-plane loss on every link must
  // not stop Pi2 from catching a 20%-drop data-plane attacker at r2 within
  // the 4 configured rounds. (No accuracy check: environmental control
  // loss may add withheld-summary suspicions, which is the documented
  // degradation, not a detection failure.)
  LineNet line{5};
  Pi2Engine engine(line.net, line.keys, *line.paths, line.terminals(), lossy_pi2_config());
  line.add_cbr(0, 4, 1, 200, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  line.add_cbr(4, 0, 2, 150, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  engine.start();
  attacks::ControlLinkFaults faults(line.net, uniform_control_loss(0.2));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  line.net.router(2).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 0.2, SimTime::from_seconds(1), 99));
  line.net.sim().run_until(SimTime::from_seconds(6.5));
  bool attacker_caught = false;
  for (const auto& s : engine.suspicions()) {
    if (std::string(s.cause) == "tv-failed" && s.segment.contains(2)) attacker_caught = true;
  }
  EXPECT_TRUE(attacker_caught);
}

TEST(ReliableIntegration, Pi2LossyRunsAreDeterministic) {
  EXPECT_EQ(run_pi2_under_loss(0.2), run_pi2_under_loss(0.2));
}

TEST(ReliableIntegration, Pi2CleanUnderReliableTransport) {
  // Reliability on, no loss, no attack: the channel must be transparent.
  LineNet line{5};
  Pi2Engine engine(line.net, line.keys, *line.paths, line.terminals(), lossy_pi2_config());
  line.add_cbr(0, 4, 1, 200, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  line.add_cbr(4, 0, 2, 150, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  engine.start();
  line.net.sim().run_until(SimTime::from_seconds(6.5));
  EXPECT_TRUE(engine.suspicions().empty());
}

TEST(ReliableIntegration, Pi2WithholdingRouterSuspectedRoundsTerminate) {
  // A protocol-faulty router that withholds every summary: each round
  // still terminates (partial verdict), and the withholder lands in the
  // suspected set with a precision-1 singleton segment.
  LineNet line{5};
  Pi2Engine engine(line.net, line.keys, *line.paths, line.terminals(), lossy_pi2_config());
  line.add_cbr(0, 4, 1, 200, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  line.add_cbr(4, 0, 2, 150, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  engine.set_report_mutator(2, [](SegmentSummary& s) { return s.round < 1; });
  engine.start();
  line.net.sim().run_until(SimTime::from_seconds(6.5));
  GroundTruth truth;
  truth.mark_protocol_faulty(2, SimTime::from_seconds(1));
  ASSERT_FALSE(engine.suspicions().empty());
  bool withheld_named = false;
  for (const auto& s : engine.suspicions()) {
    if (std::string(s.cause) == "withheld-summary") {
      EXPECT_EQ(s.segment, routing::PathSegment{2});
      withheld_named = true;
    }
  }
  EXPECT_TRUE(withheld_named);
  EXPECT_TRUE(check_accuracy(engine.suspicions(), truth, 2).accuracy_holds());
  // Strong completeness survives the degradation: every correct router
  // reported the withholder.
  for (NodeId r : {0U, 1U, 3U, 4U}) {
    bool found = false;
    for (const auto& s : engine.suspicions()) {
      if (s.reporter == r && s.segment.contains(2)) found = true;
    }
    EXPECT_TRUE(found) << "router " << r;
  }
}

Pik2Config lossy_pik2_config() {
  Pik2Config cfg;
  cfg.clock = RoundClock{SimTime::origin(), Duration::seconds(1)};
  cfg.collect_settle = Duration::millis(150);
  cfg.exchange_timeout = Duration::millis(450);
  cfg.policy = TvPolicy::kContentOrder;
  cfg.rounds = 4;
  cfg.reliable = fast_reliable();
  return cfg;
}

std::vector<std::string> run_pik2_under_loss() {
  LineNet line{6};
  Pik2Engine engine(line.net, line.keys, *line.paths, line.terminals(), lossy_pik2_config());
  line.add_cbr(0, 5, 1, 200, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  line.add_cbr(5, 0, 2, 150, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  engine.start();
  attacks::ControlLinkFaults faults(line.net, uniform_control_loss(0.2));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  line.net.router(3).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 0.2, SimTime::from_seconds(1), 99));
  line.net.sim().run_until(SimTime::from_seconds(6.5));
  std::vector<std::string> out;
  for (const auto& s : engine.suspicions()) out.push_back(s.to_string());
  return out;
}

TEST(ReliableIntegration, Pik2DetectsDropperUnder20PctControlLoss) {
  LineNet line{6};
  Pik2Engine engine(line.net, line.keys, *line.paths, line.terminals(), lossy_pik2_config());
  line.add_cbr(0, 5, 1, 200, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  line.add_cbr(5, 0, 2, 150, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  engine.start();
  attacks::ControlLinkFaults faults(line.net, uniform_control_loss(0.2));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  line.net.router(3).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 0.2, SimTime::from_seconds(1), 99));
  line.net.sim().run_until(SimTime::from_seconds(6.5));
  bool attacker_caught = false;
  for (const auto& s : engine.suspicions()) {
    if (std::string(s.cause) == "tv-failed" && s.segment.contains(3)) attacker_caught = true;
  }
  EXPECT_TRUE(attacker_caught);
}

TEST(ReliableIntegration, Pik2LossyRunsAreDeterministic) {
  EXPECT_EQ(run_pik2_under_loss(), run_pik2_under_loss());
}

TEST(ReliableIntegration, ChiReportsSurviveAckLoss) {
  // Ack-only loss forces chi's report shipping into retransmissions (the
  // acks travel the reverse direction, so the monitored queue itself stays
  // clean): every report still completes, duplicates are absorbed by the
  // part bookkeeping, and no missing-report or loss-test alarm fires.
  // (Uniform loss on the monitored link is deliberately NOT tested here:
  // chi correctly attributes drops on its own queue to the queue owner,
  // whatever their cause.)
  LineNet line{3};
  ChiConfig cfg;
  cfg.clock = RoundClock{SimTime::origin(), Duration::seconds(1)};
  cfg.settle = Duration::millis(500);
  cfg.learning_rounds = 2;
  cfg.rounds = 5;
  cfg.reliable = fast_reliable();
  ChiEngine engine(line.net, line.keys, *line.paths, cfg);
  engine.monitor_queue(1, 2);
  line.add_cbr(0, 2, 1, 100, SimTime::from_seconds(0.05), SimTime::from_seconds(4.9));
  engine.start();
  auto loss = uniform_control_loss(0.3);
  loss.match.kinds = {kKindControlAck};
  attacks::ControlLinkFaults faults(line.net, loss);
  line.net.sim().run_until(SimTime::from_seconds(7));
  EXPECT_TRUE(engine.all_suspicions().empty());
}

}  // namespace
}  // namespace fatih::detection

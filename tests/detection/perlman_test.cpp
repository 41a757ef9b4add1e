#include "detection/perlman.hpp"

#include <gtest/gtest.h>

#include "attacks/attacks.hpp"
#include "detection/spec.hpp"
#include "tests/detection/test_net.hpp"
#include "traffic/sources.hpp"

namespace fatih::detection {
namespace {

using testing::LineNet;
using util::Duration;
using util::NodeId;
using util::SimTime;

struct PerlmanFixture {
  LineNet line{6};  // a(0) b(1) c(2) d(3) e(4) f(5), matching Fig. 3.8
  routing::Path path{0, 1, 2, 3, 4, 5};
  std::unique_ptr<PerlmanDetector> detector;

  PerlmanFixture() {
    PerlmanConfig cfg;
    cfg.per_hop_bound = Duration::millis(5);
    cfg.flow_id = 1;
    detector = std::make_unique<PerlmanDetector>(line.net, line.keys, path, cfg);
    line.add_cbr(0, 5, 1, 100, SimTime::from_seconds(0.1), SimTime::from_seconds(2.9));
  }

  void run(double seconds = 4.0) { line.net.sim().run_until(SimTime::from_seconds(seconds)); }
};

TEST(Perlman, CleanPathNoSuspicions) {
  PerlmanFixture f;
  f.run();
  EXPECT_TRUE(f.detector->suspicions().empty());
  // Every intermediate + the sink ack every packet.
  EXPECT_GT(f.detector->ack_messages_sent(), 5 * 200U);
}

TEST(Perlman, SimpleDropperLocatedCorrectly) {
  PerlmanFixture f;
  GroundTruth truth;
  truth.mark_traffic_faulty(3, SimTime::from_seconds(1));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  f.line.net.router(3).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 1.0, SimTime::from_seconds(1), 7));
  f.run();
  ASSERT_FALSE(f.detector->suspicions().empty());
  EXPECT_TRUE(check_accuracy(f.detector->suspicions(), truth, 2).accuracy_holds());
  EXPECT_TRUE(check_completeness_for(f.detector->suspicions(), 3));
}

// The Fig. 3.8 colluder: drops PERLMAN acks originating from a chosen
// position while leaving everything else alone.
struct AckFilter final : sim::ForwardFilter {
  std::uint32_t blocked_position;
  util::SimTime from;
  AckFilter(std::uint32_t pos, util::SimTime t) : blocked_position(pos), from(t) {}

  sim::ForwardDecision on_forward(const sim::Packet& p, util::NodeId, const sim::Interface&,
                                  sim::Router& router) override {
    if (router.sim().now() < from) return sim::ForwardDecision::forward();
    if (p.control != nullptr && p.control->kind() == kKindPerlmanAck) {
      // Colluders can read unencrypted ack headers and discriminate.
      const auto& ack = static_cast<const PerlmanAckPayload&>(*p.control);
      if (ack.from_position >= blocked_position) return sim::ForwardDecision::drop();
    }
    return sim::ForwardDecision::forward();
  }
};

TEST(Perlman, CollusionFramesCorrectRouters) {
  // Fig. 3.8: b (=1) and e (=4) are faulty. e drops the data before f;
  // b discriminatorily drops acks from d (=3) onward. The source receives
  // acks only from b and c, concludes "something is wrong past c", and
  // suspects <c, d> — two CORRECT routers. Accuracy is violated, which is
  // exactly why the dissertation rejects PERLMAN_d.
  PerlmanFixture f;
  GroundTruth truth;
  truth.mark_traffic_faulty(4, SimTime::from_seconds(1));
  truth.mark_protocol_faulty(1, SimTime::from_seconds(1));

  attacks::FlowMatch match;
  match.flow_ids = {1};
  f.line.net.router(4).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 1.0, SimTime::from_seconds(1), 7));
  f.line.net.router(1).set_forward_filter(
      std::make_shared<AckFilter>(3, SimTime::from_seconds(1)));
  f.run();

  ASSERT_FALSE(f.detector->suspicions().empty());
  bool framed_correct_pair = false;
  for (const auto& s : f.detector->suspicions()) {
    if (s.segment == (routing::PathSegment{2, 3})) framed_correct_pair = true;
  }
  EXPECT_TRUE(framed_correct_pair);
  // And the spec checker agrees: accuracy does NOT hold.
  EXPECT_FALSE(check_accuracy(f.detector->suspicions(), truth, 2).accuracy_holds());
}

TEST(RobustMultipath, DeliversDespiteFaultyRouters) {
  // Perlman's TotalFault(f) robustness: with f=1 and two disjoint paths,
  // one compromised interior router cannot stop delivery.
  sim::Network net(9);
  for (util::NodeId i = 0; i < 4; ++i) net.add_router(util::node_name(i));
  sim::LinkConfig cfg;
  cfg.bandwidth_bps = 1e8;
  cfg.delay = Duration::millis(1);
  net.connect(0, 1, cfg);
  net.connect(0, 2, cfg);
  net.connect(1, 3, cfg);
  net.connect(2, 3, cfg);
  const routing::Topology topo = routing::Topology::from_network(net);

  RobustMultipathSender sender(net, topo, 0, 3, /*f=*/1);
  ASSERT_EQ(sender.paths().size(), 2U);

  // Compromise router 1: drops everything.
  attacks::FlowMatch all;
  all.include_control = true;
  net.router(1).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      all, 1.0, SimTime::origin(), 7));

  std::set<std::uint32_t> delivered;
  std::uint64_t copies = 0;
  net.router(3).add_local_handler([&](const sim::Packet& p, NodeId, SimTime) {
    delivered.insert(p.hdr.seq);
    ++copies;
  });
  for (std::uint32_t seq = 0; seq < 50; ++seq) {
    net.sim().schedule_at(SimTime::from_seconds(0.01 * seq),
                          [&sender, seq] { sender.send(7, seq, 500); });
  }
  net.sim().run();
  EXPECT_EQ(delivered.size(), 50U);  // every datagram arrives
  EXPECT_EQ(copies, 50U);            // exactly one surviving copy each
}

TEST(RobustMultipath, ThrowsWithoutDiversity) {
  sim::Network net(10);
  net.add_router("a");
  net.add_router("b");
  net.add_router("c");
  sim::LinkConfig cfg;
  net.connect(0, 1, cfg);
  net.connect(1, 2, cfg);
  const routing::Topology topo = routing::Topology::from_network(net);
  EXPECT_THROW(RobustMultipathSender(net, topo, 0, 2, /*f=*/1), std::runtime_error);
}

TEST(RobustMultipath, DuplicatesShareFingerprint) {
  sim::Network net(11);
  for (util::NodeId i = 0; i < 4; ++i) net.add_router(util::node_name(i));
  sim::LinkConfig cfg;
  net.connect(0, 1, cfg);
  net.connect(0, 2, cfg);
  net.connect(1, 3, cfg);
  net.connect(2, 3, cfg);
  const routing::Topology topo = routing::Topology::from_network(net);
  RobustMultipathSender sender(net, topo, 0, 3, 1);
  std::set<std::uint64_t> tags;
  std::uint64_t copies = 0;
  net.router(3).add_local_handler([&](const sim::Packet& p, NodeId, SimTime) {
    tags.insert(p.payload_tag);
    ++copies;
  });
  net.sim().schedule_at(SimTime::origin(), [&] { sender.send(7, 0, 500); });
  net.sim().run();
  EXPECT_EQ(copies, 2U);
  EXPECT_EQ(tags.size(), 1U);  // same bytes on both paths -> deduplicable
}

}  // namespace
}  // namespace fatih::detection

#include "detection/flood.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "attacks/attacks.hpp"
#include "crypto/keys.hpp"
#include "detection/reliable.hpp"
#include "routing/topologies.hpp"

namespace fatih::detection {
namespace {

using util::Duration;
using util::NodeId;
using util::SimTime;

struct TestPayload final : sim::ControlPayload {
  std::uint64_t id = 0;
  [[nodiscard]] std::uint16_t kind() const override { return 0x2F01; }
};

struct FloodNet {
  sim::Network net{5};
  crypto::KeyRegistry keys{777};
  std::unique_ptr<FloodService> service;
  std::map<NodeId, std::size_t> deliveries;
  std::map<std::uint64_t, std::size_t> per_payload;

  FloodNet() {
    using namespace fatih::routing;
    for (NodeId n = 0; n <= kNewYork; ++n) net.add_router(abilene_name(n));
    for (const auto& l : abilene_links()) {
      sim::LinkConfig link;
      link.delay = Duration::millis(l.delay_ms);
      net.connect(l.a, l.b, link);
    }
    service = std::make_unique<FloodService>(net, 0x2F01);
    service->set_key_fn([](const sim::ControlPayload& p) {
      return static_cast<const TestPayload&>(p).id;
    });
    service->set_delivery_fn([this](NodeId at, const sim::ControlPayload& p, SimTime) {
      ++deliveries[at];
      ++per_payload[static_cast<const TestPayload&>(p).id];
    });
  }

  void originate(NodeId from, std::uint64_t id) {
    auto payload = std::make_shared<TestPayload>();
    payload->id = id;
    net.sim().schedule_at(net.sim().now(), [this, from, payload] {
      service->originate(from, payload, 64);
    });
  }
};

TEST(FloodService, ReachesEveryRouterExactlyOnce) {
  FloodNet f;
  f.originate(routing::kDenver, 1);
  f.net.sim().run_until(SimTime::from_seconds(1));
  EXPECT_EQ(f.deliveries.size(), 11U);
  for (const auto& [node, count] : f.deliveries) EXPECT_EQ(count, 1U) << node;
}

TEST(FloodService, DistinctPayloadsAllDelivered) {
  FloodNet f;
  f.originate(routing::kSeattle, 1);
  f.originate(routing::kAtlanta, 2);
  f.originate(routing::kAtlanta, 3);
  f.net.sim().run_until(SimTime::from_seconds(1));
  EXPECT_EQ(f.per_payload[1], 11U);
  EXPECT_EQ(f.per_payload[2], 11U);
  EXPECT_EQ(f.per_payload[3], 11U);
}

TEST(FloodService, DuplicateOriginationIgnored) {
  FloodNet f;
  f.originate(routing::kDenver, 7);
  f.originate(routing::kDenver, 7);
  f.net.sim().run_until(SimTime::from_seconds(1));
  EXPECT_EQ(f.per_payload[7], 11U);
}

TEST(FloodService, SurvivesSuppressionWithGoodPaths) {
  // A suppressed router receives but never re-floods; Abilene remains
  // connected around any single router, so everyone else still hears.
  FloodNet f;
  f.service->suppress_at(routing::kKansasCity);
  f.originate(routing::kDenver, 9);
  f.net.sim().run_until(SimTime::from_seconds(1));
  EXPECT_EQ(f.per_payload[9], 11U);
}

// A 5-router line (no routes): r2 is a cut vertex, so suppression there
// partitions the flood — the contrast case to Abilene's good paths above.
struct LineFloodNet {
  sim::Network net{5};
  std::unique_ptr<FloodService> service;
  std::map<NodeId, std::size_t> deliveries;

  LineFloodNet() {
    for (util::NodeId i = 0; i < 5; ++i) net.add_router(util::node_name(i));
    for (NodeId i = 0; i + 1 < 5; ++i) {
      sim::LinkConfig link;
      link.delay = Duration::millis(1);
      net.connect(i, i + 1, link);
    }
    service = std::make_unique<FloodService>(net, 0x2F01);
    service->set_key_fn(
        [](const sim::ControlPayload& p) { return static_cast<const TestPayload&>(p).id; });
    service->set_delivery_fn(
        [this](NodeId at, const sim::ControlPayload&, SimTime) { ++deliveries[at]; });
  }

  void originate(NodeId from, std::uint64_t id) {
    auto payload = std::make_shared<TestPayload>();
    payload->id = id;
    net.sim().schedule_at(net.sim().now(), [this, from, payload] {
      service->originate(from, payload, 64);
    });
  }
};

TEST(FloodService, CutVertexSuppressionPartitionsFlood) {
  LineFloodNet f;
  f.service->suppress_at(2);
  f.originate(0, 1);
  f.net.sim().run_until(SimTime::from_seconds(1));
  // r2 hears (suppression is about re-flooding, not receiving) but r3/r4
  // sit behind the cut vertex and never do: no good path remains.
  EXPECT_EQ(f.deliveries.size(), 3U);
  for (NodeId n : {0U, 1U, 2U}) EXPECT_EQ(f.deliveries[n], 1U) << n;
  EXPECT_FALSE(f.deliveries.contains(3));
  EXPECT_FALSE(f.deliveries.contains(4));
}

TEST(FloodService, ExactlyOnceDeliveryOverReliableChannelUnderLoss) {
  // With hop copies riding the ack/retransmit channel, a 30%-lossy control
  // plane still yields exactly-once delivery at every router, and the
  // channel drains to quiescence.
  FloodNet f;
  ReliableConfig rcfg;
  rcfg.enabled = true;
  rcfg.initial_rto = Duration::millis(25);
  rcfg.min_rto = Duration::millis(10);
  rcfg.max_rto = Duration::millis(100);
  rcfg.max_retries = 7;
  ReliableChannel channel(f.net, f.keys, 0x2F01, rcfg);
  channel.set_key_fn(
      [](const sim::ControlPayload& p) { return static_cast<const TestPayload&>(p).id; });
  f.service->set_channel(&channel);
  attacks::ControlLinkFaults::Config loss;
  loss.drop_fraction = 0.3;
  loss.seed = 42;
  attacks::ControlLinkFaults faults(f.net, loss);
  f.originate(routing::kDenver, 1);
  f.originate(routing::kAtlanta, 2);
  f.originate(routing::kSeattle, 3);
  f.net.sim().run_until(SimTime::from_seconds(4));
  for (std::uint64_t id : {1U, 2U, 3U}) EXPECT_EQ(f.per_payload[id], 11U) << id;
  for (const auto& [node, count] : f.deliveries) EXPECT_EQ(count, 3U) << node;
  EXPECT_GT(channel.stats().retransmits, 0U);
  EXPECT_EQ(channel.stats().failures, 0U);
  EXPECT_EQ(channel.in_flight(), 0U);
}

TEST(FloodService, ReliableLossyFloodIsDeterministic) {
  auto run_once = [] {
    FloodNet f;
    ReliableConfig rcfg;
    rcfg.enabled = true;
    rcfg.max_retries = 7;
    ReliableChannel channel(f.net, f.keys, 0x2F01, rcfg);
    channel.set_key_fn(
        [](const sim::ControlPayload& p) { return static_cast<const TestPayload&>(p).id; });
    f.service->set_channel(&channel);
    attacks::ControlLinkFaults::Config loss;
    loss.drop_fraction = 0.3;
    loss.seed = 42;
    attacks::ControlLinkFaults faults(f.net, loss);
    f.originate(routing::kDenver, 1);
    f.originate(routing::kAtlanta, 2);
    f.net.sim().run_until(SimTime::from_seconds(4));
    const auto& s = channel.stats();
    return std::tuple{s.transmissions, s.retransmits, s.acks_sent, s.acks_received,
                      s.duplicates, f.deliveries};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace fatih::detection

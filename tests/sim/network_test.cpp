#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "obs/trace.hpp"
#include "routing/install.hpp"
#include "routing/spf.hpp"
#include "routing/topologies.hpp"
#include "sim/churn.hpp"
#include "sim/node.hpp"
#include "traffic/sources.hpp"

namespace fatih::sim {
namespace {

using util::Duration;
using util::NodeId;
using util::SimTime;

// Two routers connected by one duplex link.
struct Pair {
  Network net{1};
  Router* a;
  Router* b;

  explicit Pair(LinkConfig cfg = {}) {
    a = &net.add_router("a");
    b = &net.add_router("b");
    net.connect(a->id(), b->id(), cfg);
    a->set_route(b->id(), 0);
    b->set_route(a->id(), 0);
    a->set_processing_delay(Duration::micros(10), {});
    b->set_processing_delay(Duration::micros(10), {});
  }

  Packet make(NodeId src, NodeId dst, std::uint32_t payload) {
    PacketHeader hdr;
    hdr.src = src;
    hdr.dst = dst;
    return net.make_packet(hdr, payload);
  }
};

TEST(Network, PacketDeliveredWithCorrectLatency) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;  // 1 MB/s
  cfg.delay = Duration::millis(5);
  Pair p(cfg);

  SimTime arrival;
  p.b->add_local_handler([&](const Packet&, NodeId, SimTime now) { arrival = now; });
  const Packet pkt = p.make(p.a->id(), p.b->id(), 960);  // 1000B wire
  p.net.sim().schedule_at(SimTime::origin(), [&] { p.a->originate(pkt); });
  p.net.sim().run();
  // tx = 1000B / 1MBps = 1ms; total = 1ms + 5ms.
  EXPECT_EQ(arrival, SimTime::origin() + Duration::millis(6));
}

TEST(Network, SerializationSerializesBackToBack) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;
  cfg.delay = Duration::millis(1);
  Pair p(cfg);
  std::vector<SimTime> arrivals;
  p.b->add_local_handler([&](const Packet&, NodeId, SimTime now) { arrivals.push_back(now); });
  p.net.sim().schedule_at(SimTime::origin(), [&] {
    p.a->originate(p.make(p.a->id(), p.b->id(), 960));
    p.a->originate(p.make(p.a->id(), p.b->id(), 960));
  });
  p.net.sim().run();
  ASSERT_EQ(arrivals.size(), 2U);
  // Second packet waits for the first's 1 ms serialization.
  EXPECT_EQ(arrivals[1] - arrivals[0], Duration::millis(1));
}

TEST(Network, TtlExpiryDropsPacket) {
  Pair p;
  bool delivered = false;
  DropReason reason{};
  bool dropped = false;
  p.b->add_local_handler([&](const Packet&, NodeId, SimTime) { delivered = true; });
  p.a->add_drop_tap([&](const Packet&, SimTime, DropReason r) {
    dropped = true;
    reason = r;
  });
  Packet pkt = p.make(p.a->id(), p.b->id(), 100);
  pkt.hdr.ttl = 1;  // decrements to 0 at the first router
  p.net.sim().schedule_at(SimTime::origin(), [&] { p.a->originate(pkt); });
  p.net.sim().run();
  EXPECT_FALSE(delivered);
  EXPECT_TRUE(dropped);
  EXPECT_EQ(reason, DropReason::kTtlExpired);
}

TEST(Network, NoRouteDrops) {
  Pair p;
  p.a->clear_routes();
  bool dropped = false;
  p.a->add_drop_tap([&](const Packet&, SimTime, DropReason r) {
    dropped = r == DropReason::kNoRoute;
  });
  p.net.sim().schedule_at(SimTime::origin(),
                          [&] { p.a->originate(p.make(p.a->id(), p.b->id(), 100)); });
  p.net.sim().run();
  EXPECT_TRUE(dropped);
}

TEST(Network, CongestionDropFiresTap) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e4;  // very slow: 10 kB/s
  cfg.queue_limit_bytes = 2000;
  Pair p(cfg);
  int congestion_drops = 0;
  p.a->interface(0).add_drop_tap([&](const Packet&, SimTime, DropReason r) {
    if (r == DropReason::kCongestion) ++congestion_drops;
  });
  p.net.sim().schedule_at(SimTime::origin(), [&] {
    for (int i = 0; i < 10; ++i) p.a->originate(p.make(p.a->id(), p.b->id(), 960));
  });
  p.net.sim().run();
  EXPECT_GT(congestion_drops, 0);
}

TEST(Network, PolicyRouteOverridesDefault) {
  // Triangle a-b-c; b's policy for traffic from a diverts to c.
  Network net(2);
  auto& a = net.add_router("a");
  auto& b = net.add_router("b");
  auto& c = net.add_router("c");
  auto& d = net.add_router("d");
  net.connect(a.id(), b.id(), {});
  net.connect(b.id(), c.id(), {});
  net.connect(b.id(), d.id(), {});
  a.set_route(d.id(), 0);                    // a -> b
  b.set_route(d.id(), b.interface_to(d.id())->index());  // default: b -> d
  b.set_policy_route(a.id(), d.id(), b.interface_to(c.id())->index());  // policy: via c
  bool via_c = false;
  c.add_receive_tap([&](const Packet&, NodeId, SimTime) { via_c = true; });

  PacketHeader hdr;
  hdr.src = a.id();
  hdr.dst = d.id();
  const Packet pkt = net.make_packet(hdr, 100);
  net.sim().schedule_at(SimTime::origin(), [&] { a.originate(pkt); });
  net.sim().run();
  EXPECT_TRUE(via_c);
}

TEST(Network, PolicyDropSuppressesFallback) {
  Pair p;
  p.a->set_policy_drop(p.a->id(), p.b->id());
  bool delivered = false;
  bool no_route = false;
  p.b->add_local_handler([&](const Packet&, NodeId, SimTime) { delivered = true; });
  p.a->add_drop_tap([&](const Packet&, SimTime, DropReason r) {
    no_route = r == DropReason::kNoRoute;
  });
  p.net.sim().schedule_at(SimTime::origin(),
                          [&] { p.a->originate(p.make(p.a->id(), p.b->id(), 100)); });
  p.net.sim().run();
  EXPECT_FALSE(delivered);
  EXPECT_TRUE(no_route);
}

TEST(Network, HostSendsThroughGateway) {
  Network net(3);
  auto& r = net.add_router("r");
  auto& h1 = net.add_host("h1");
  auto& h2 = net.add_host("h2");
  net.connect(h1.id(), r.id(), {});
  net.connect(h2.id(), r.id(), {});
  r.set_route(h1.id(), r.interface_to(h1.id())->index());
  r.set_route(h2.id(), r.interface_to(h2.id())->index());

  bool delivered = false;
  h2.add_local_handler([&](const Packet&, NodeId, SimTime) { delivered = true; });
  PacketHeader hdr;
  hdr.src = h1.id();
  hdr.dst = h2.id();
  const Packet pkt = net.make_packet(hdr, 100);
  net.sim().schedule_at(SimTime::origin(), [&] { h1.send(pkt); });
  net.sim().run();
  EXPECT_TRUE(delivered);
}

TEST(Network, HostsDoNotForwardTransit) {
  // a - h - b: h is a host in the middle; transit traffic must die there.
  Network net(4);
  auto& a = net.add_router("a");
  auto& h = net.add_host("h");
  auto& b = net.add_router("b");
  net.connect(a.id(), h.id(), {});
  net.connect(h.id(), b.id(), {});
  a.set_route(b.id(), 0);
  bool delivered = false;
  b.add_local_handler([&](const Packet&, NodeId, SimTime) { delivered = true; });
  PacketHeader hdr;
  hdr.src = a.id();
  hdr.dst = b.id();
  const Packet pkt = net.make_packet(hdr, 100);
  net.sim().schedule_at(SimTime::origin(), [&] { a.originate(pkt); });
  net.sim().run();
  EXPECT_FALSE(delivered);
}

// Forward filter that drops everything after a time.
struct DropAllFilter : ForwardFilter {
  ForwardDecision on_forward(const Packet&, NodeId, const Interface&, Router&) override {
    return ForwardDecision::drop();
  }
};

TEST(Network, ForwardFilterDropCountsAsMalicious) {
  Pair p;
  p.a->set_forward_filter(std::make_shared<DropAllFilter>());
  bool malicious = false;
  p.a->add_drop_tap([&](const Packet&, SimTime, DropReason r) {
    malicious = r == DropReason::kMalicious;
  });
  p.net.sim().schedule_at(SimTime::origin(),
                          [&] { p.a->originate(p.make(p.a->id(), p.b->id(), 100)); });
  p.net.sim().run();
  EXPECT_TRUE(malicious);
  EXPECT_EQ(p.a->malicious_drops(), 1U);
  EXPECT_TRUE(p.a->compromised());
}

struct TamperFilter : ForwardFilter {
  ForwardDecision on_forward(const Packet& p, NodeId, const Interface&, Router&) override {
    ForwardDecision d;
    Packet copy = p;
    copy.payload_tag ^= 0xFFULL;
    d.replacement = copy;
    return d;
  }
};

TEST(Network, ForwardFilterCanModifyPayload) {
  Pair p;
  const Packet pkt = p.make(p.a->id(), p.b->id(), 100);
  const std::uint64_t original_tag = pkt.payload_tag;
  p.a->set_forward_filter(std::make_shared<TamperFilter>());
  std::uint64_t seen_tag = 0;
  p.b->add_local_handler([&](const Packet& q, NodeId, SimTime) { seen_tag = q.payload_tag; });
  p.net.sim().schedule_at(SimTime::origin(), [&] { p.a->originate(pkt); });
  p.net.sim().run();
  EXPECT_EQ(seen_tag, original_tag ^ 0xFFULL);
}

TEST(Network, ProcessingJitterBoundedAndVariable) {
  LinkConfig cfg;
  cfg.delay = Duration::millis(1);
  cfg.bandwidth_bps = 1e9;
  Network net(5);
  auto& a = net.add_router("a");
  auto& b = net.add_router("b");
  auto& c = net.add_router("c");
  net.connect(a.id(), b.id(), cfg);
  net.connect(b.id(), c.id(), cfg);
  a.set_route(c.id(), 0);
  b.set_route(c.id(), b.interface_to(c.id())->index());
  b.set_processing_delay(Duration::micros(20), Duration::micros(100));

  std::vector<SimTime> arrivals;
  c.add_local_handler([&](const Packet&, NodeId, SimTime now) { arrivals.push_back(now); });
  net.sim().schedule_at(SimTime::origin(), [&] {
    for (int i = 0; i < 50; ++i) {
      PacketHeader hdr;
      hdr.src = a.id();
      hdr.dst = c.id();
      Packet pkt = net.make_packet(hdr, 0);
      net.sim().schedule_at(SimTime::from_seconds(i * 0.01), [&a, pkt] { a.originate(pkt); });
    }
  });
  net.sim().run();
  ASSERT_EQ(arrivals.size(), 50U);
  // Latency varies (jitter), but within the configured bound.
  std::set<std::int64_t> latencies;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto lat = arrivals[i] - SimTime::from_seconds(i * 0.01);
    latencies.insert(lat.count_nanos());
    EXPECT_GE(lat, Duration::millis(2) + Duration::micros(20));
    EXPECT_LE(lat, Duration::millis(2) + Duration::micros(120) + Duration::micros(5));
  }
  EXPECT_GT(latencies.size(), 10U);
}

TEST(Network, MakePacketAssignsUniqueUids) {
  Network net(6);
  net.add_router("a");
  PacketHeader hdr;
  std::set<std::uint64_t> uids;
  for (int i = 0; i < 100; ++i) uids.insert(net.make_packet(hdr, 0).uid);
  EXPECT_EQ(uids.size(), 100U);
}

TEST(Network, LinkDownDropsQueuedAndInFlight) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e5;  // 100 kB/s: 1000B takes 10 ms to serialize
  cfg.delay = Duration::millis(5);
  Pair p(cfg);
  int delivered = 0;
  int link_drops = 0;
  p.b->add_local_handler([&](const Packet&, NodeId, SimTime) { ++delivered; });
  p.a->interface(0).add_drop_tap([&](const Packet&, SimTime, DropReason r) {
    if (r == DropReason::kLinkDown) ++link_drops;
  });
  p.net.sim().schedule_at(SimTime::origin(), [&] {
    for (int i = 0; i < 4; ++i) p.a->originate(p.make(p.a->id(), p.b->id(), 960));
  });
  // Cut while the first packet is still serializing: it and the queued
  // three all die with kLinkDown; nothing crosses.
  p.net.sim().schedule_at(SimTime::origin() + Duration::millis(2),
                          [&] { p.net.set_link_up(p.a->id(), p.b->id(), false); });
  p.net.sim().run_until(SimTime::from_seconds(1));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link_drops, 4);
  EXPECT_FALSE(p.net.link_usable(p.a->id(), p.b->id()));

  // Repair; traffic flows again.
  p.net.set_link_up(p.a->id(), p.b->id(), true);
  p.net.sim().schedule_at(SimTime::from_seconds(1.1),
                          [&] { p.a->originate(p.make(p.a->id(), p.b->id(), 960)); });
  p.net.sim().run_until(SimTime::from_seconds(2));
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(p.net.link_usable(p.a->id(), p.b->id()));
}

TEST(Network, CrashedRouterBlackholesAndLosesSoftState) {
  // a - b - c: crash b mid-run; transit traffic dies at b, and a restarted
  // b has lost its routing state (packets die with kNoRoute until routes
  // are reinstalled).
  Network net(9);
  auto& a = net.add_router("a");
  auto& b = net.add_router("b");
  auto& c = net.add_router("c");
  net.connect(a.id(), b.id(), {});
  net.connect(b.id(), c.id(), {});
  a.set_route(c.id(), 0);
  b.set_route(c.id(), b.interface_to(c.id())->index());
  int delivered = 0;
  int node_drops = 0;
  int no_route = 0;
  c.add_local_handler([&](const Packet&, NodeId, SimTime) { ++delivered; });
  b.add_drop_tap([&](const Packet&, SimTime, DropReason r) {
    if (r == DropReason::kNodeDown) ++node_drops;
    if (r == DropReason::kNoRoute) ++no_route;
  });
  auto send = [&](double at) {
    PacketHeader hdr;
    hdr.src = a.id();
    hdr.dst = c.id();
    const Packet pkt = net.make_packet(hdr, 100);
    net.sim().schedule_at(SimTime::from_seconds(at), [&a, pkt] { a.originate(pkt); });
  };
  send(0.1);  // delivered
  net.sim().schedule_at(SimTime::from_seconds(0.5), [&] { net.crash_router(b.id()); });
  send(0.6);  // dies at crashed b
  net.sim().schedule_at(SimTime::from_seconds(1.0), [&] { net.restart_router(b.id()); });
  send(1.1);  // b is up but amnesiac: no route to c
  net.sim().run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(node_drops, 1);
  EXPECT_EQ(no_route, 1);
  EXPECT_TRUE(net.node_up(b.id()));
}

TEST(Network, StatusHooksFireOnChurn) {
  Pair p;
  std::vector<std::pair<bool, SimTime>> link_events;
  std::vector<std::pair<bool, SimTime>> node_events;
  p.net.add_link_status_hook([&](NodeId, NodeId, bool up, SimTime at) {
    link_events.emplace_back(up, at);
  });
  p.net.add_node_status_hook(
      [&](NodeId, bool up, SimTime at) { node_events.emplace_back(up, at); });
  p.net.sim().schedule_at(SimTime::from_seconds(1),
                          [&] { p.net.set_link_up(p.a->id(), p.b->id(), false); });
  p.net.sim().schedule_at(SimTime::from_seconds(2),
                          [&] { p.net.set_link_up(p.a->id(), p.b->id(), true); });
  p.net.sim().schedule_at(SimTime::from_seconds(3), [&] { p.net.crash_router(p.a->id()); });
  p.net.sim().schedule_at(SimTime::from_seconds(4), [&] { p.net.restart_router(p.a->id()); });
  p.net.sim().run();
  ASSERT_EQ(link_events.size(), 2U);
  EXPECT_FALSE(link_events[0].first);
  EXPECT_EQ(link_events[0].second, SimTime::from_seconds(1));
  EXPECT_TRUE(link_events[1].first);
  ASSERT_EQ(node_events.size(), 2U);
  EXPECT_FALSE(node_events[0].first);
  EXPECT_TRUE(node_events[1].first);
}

TEST(Network, ChurnScheduleArmsAndExportsIntervals) {
  Pair p;
  ChurnSchedule churn;
  churn.link_flap(p.a->id(), p.b->id(), SimTime::from_seconds(1), Duration::seconds(1),
                  Duration::seconds(4), 2);
  churn.router_crash(p.a->id(), SimTime::from_seconds(10));
  churn.arm(p.net);
  p.net.sim().run_until(SimTime::from_seconds(1.5));
  EXPECT_FALSE(p.net.link_usable(p.a->id(), p.b->id()));
  p.net.sim().run_until(SimTime::from_seconds(2.5));
  EXPECT_TRUE(p.net.link_usable(p.a->id(), p.b->id()));
  p.net.sim().run_until(SimTime::from_seconds(5.5));
  EXPECT_FALSE(p.net.link_usable(p.a->id(), p.b->id()));  // second flap cycle
  p.net.sim().run_until(SimTime::from_seconds(11));
  EXPECT_FALSE(p.net.node_up(p.a->id()));

  // Two flap cycles pair up; the unrepaired crash runs to the horizon.
  const auto intervals =
      churn.churn_intervals(Duration::seconds(1), SimTime::from_seconds(20));
  ASSERT_EQ(intervals.size(), 3U);
  EXPECT_EQ(intervals[0].begin, SimTime::from_seconds(1));
  EXPECT_EQ(intervals[0].end, SimTime::from_seconds(3));  // repair at 2 + settle 1
  EXPECT_EQ(intervals[1].begin, SimTime::from_seconds(5));
  EXPECT_EQ(intervals[1].end, SimTime::from_seconds(7));
  EXPECT_EQ(intervals[2].begin, SimTime::from_seconds(10));
  EXPECT_EQ(intervals[2].end, SimTime::from_seconds(20));  // never repaired
}

TEST(Network, AdjacencyExportMatchesLinks) {
  Network net(7);
  auto& a = net.add_router("a");
  auto& b = net.add_router("b");
  LinkConfig cfg;
  cfg.metric = 9;
  net.connect(a.id(), b.id(), cfg);
  ASSERT_EQ(net.adjacencies().size(), 2U);
  EXPECT_EQ(net.adjacencies()[0].metric, 9U);
  EXPECT_EQ(net.adjacencies()[0].from, a.id());
  EXPECT_EQ(net.adjacencies()[1].from, b.id());
}

/// Router forward operations, deliveries and dispatched events of one run.
struct AbileneCounts {
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dispatched = 0;
};

/// The Abilene no-attack forwarding substrate under the chapter-5/6
/// experiments: 11 PoPs on 1 Gbps links with 256 KB queues, static
/// shortest-path routes, 20 us processing delay with up to 10 us jitter, a
/// forward tap and a local handler on every router (the summary-generator
/// attachment shape), and ten 2,000 pps CBR flows of 960 B payloads over
/// five coast-to-coast and regional pairs, both ways, from 0.01 s to 10 s.
/// Runs to 11 s; a non-null `sink` is attached for the run.
AbileneCounts run_abilene_no_attack(obs::TraceSink* sink = nullptr) {
  Network net{20260805};
  for (NodeId n = 0; n <= routing::kNewYork; ++n) net.add_router(routing::abilene_name(n));
  for (const auto& l : routing::abilene_links()) {
    LinkConfig link;
    link.delay = Duration::millis(l.delay_ms);
    link.metric = l.delay_ms;
    link.bandwidth_bps = 1e9;
    link.queue_limit_bytes = 256000;
    net.connect(l.a, l.b, link);
  }
  routing::install_static_routes(net, routing::RoutingTables(routing::Topology::from_network(net)));
  for (NodeId n = 0; n <= routing::kNewYork; ++n) {
    net.router(n).set_processing_delay(Duration::micros(20), Duration::micros(10));
  }
  net.sim().set_trace(sink);

  AbileneCounts out;
  for (NodeId n = 0; n <= routing::kNewYork; ++n) {
    net.router(n).add_forward_tap(
        [&out](const Packet&, NodeId, std::size_t, SimTime) { ++out.forwarded; });
    net.router(n).add_local_handler([&out](const Packet&, NodeId, SimTime) { ++out.delivered; });
  }
  const std::pair<NodeId, NodeId> pairs[] = {
      {routing::kSeattle, routing::kNewYork},    {routing::kSunnyvale, routing::kWashington},
      {routing::kLosAngeles, routing::kAtlanta}, {routing::kDenver, routing::kChicago},
      {routing::kHouston, routing::kIndianapolis}};
  std::vector<std::unique_ptr<traffic::CbrSource>> sources;
  std::uint32_t flow = 1;
  for (const auto& [a, b] : pairs) {
    for (const auto& [src, dst] : {std::pair{a, b}, std::pair{b, a}}) {
      traffic::CbrSource::Config cfg;
      cfg.src = src;
      cfg.dst = dst;
      cfg.flow_id = flow++;
      cfg.payload_bytes = 960;
      cfg.rate_pps = 2000.0;
      cfg.start = SimTime::from_seconds(0.01);
      cfg.stop = SimTime::from_seconds(10);
      sources.push_back(std::make_unique<traffic::CbrSource>(net, cfg));
    }
  }
  net.sim().run_until(SimTime::from_seconds(11));
  out.dispatched = net.sim().events_dispatched();
  return out;
}

TEST(Network, AbileneNoAttackMatchesSeedEngineCounts) {
  // The seed's event engine (a priority_queue plus a callback map) gave
  // these counts on this scenario. Every engine since must reproduce them
  // exactly: a drift means forwarding or dispatch behaviour changed.
  constexpr std::uint64_t kSeedForwarded = 639'360;
  constexpr std::uint64_t kSeedDelivered = 199'800;
  constexpr std::uint64_t kSeedDispatched = 1'918'090;
  const AbileneCounts plain = run_abilene_no_attack();
  EXPECT_EQ(plain.forwarded, kSeedForwarded);
  EXPECT_EQ(plain.delivered, kSeedDelivered);
  EXPECT_EQ(plain.dispatched, kSeedDispatched);

#if FATIH_TRACE
  // Observation never perturbs: with a sink attached the run reproduces
  // the same counts, and the sink records something.
  obs::TraceSink sink;
  const AbileneCounts traced = run_abilene_no_attack(&sink);
  EXPECT_EQ(traced.forwarded, kSeedForwarded);
  EXPECT_EQ(traced.delivered, kSeedDelivered);
  EXPECT_EQ(traced.dispatched, kSeedDispatched);
  EXPECT_GT(sink.recorded(), 0U);
#endif  // FATIH_TRACE
}

}  // namespace
}  // namespace fatih::sim

#include "routing/link_state.hpp"

#include <gtest/gtest.h>

#include "routing/install.hpp"
#include "routing/spf.hpp"
#include "routing/topologies.hpp"

namespace fatih::routing {
namespace {

using util::Duration;
using util::SimTime;

struct AbileneNet {
  sim::Network net{11};
  crypto::KeyRegistry keys{2024};
  std::unique_ptr<LinkStateRouting> lsr;

  explicit AbileneNet(LinkStateConfig cfg = fast_config()) {
    for (util::NodeId n = 0; n <= kNewYork; ++n) net.add_router(abilene_name(n));
    for (const auto& l : abilene_links()) {
      sim::LinkConfig link;
      link.delay = Duration::millis(l.delay_ms);
      link.metric = l.delay_ms;
      net.connect(l.a, l.b, link);
    }
    lsr = std::make_unique<LinkStateRouting>(net, keys, cfg);
  }

  static LinkStateConfig fast_config() {
    LinkStateConfig cfg;
    cfg.hello_interval = Duration::seconds(1);
    cfg.spf_delay = Duration::millis(500);
    cfg.spf_hold = Duration::seconds(1);
    return cfg;
  }
};

TEST(LinkState, AllRoutersConverge) {
  AbileneNet a;
  a.lsr->start();
  a.net.sim().run_until(SimTime::from_seconds(30));
  for (util::NodeId n = 0; n <= kNewYork; ++n) {
    EXPECT_TRUE(a.lsr->converged(n)) << abilene_name(n);
  }
}

TEST(LinkState, ConvergedRoutesMatchCentralSpf) {
  AbileneNet a;
  a.lsr->start();
  a.net.sim().run_until(SimTime::from_seconds(30));
  const RoutingTables reference(abilene_topology());
  for (util::NodeId s = 0; s <= kNewYork; ++s) {
    for (util::NodeId d = 0; d <= kNewYork; ++d) {
      if (s == d) continue;
      const util::NodeId expected = reference.next_hop(s, d);
      const auto actual = a.net.router(s).lookup(s, d);
      ASSERT_TRUE(actual.has_value()) << s << "->" << d;
      EXPECT_EQ(a.net.router(s).interface(*actual).peer(), expected) << s << "->" << d;
    }
  }
}

TEST(LinkState, PacketsFlowAfterConvergence) {
  AbileneNet a;
  a.lsr->start();
  a.net.sim().run_until(SimTime::from_seconds(30));
  bool delivered = false;
  a.net.router(kNewYork).add_local_handler(
      [&](const sim::Packet&, util::NodeId, SimTime) { delivered = true; });
  sim::PacketHeader hdr;
  hdr.src = kSunnyvale;
  hdr.dst = kNewYork;
  const sim::Packet p = a.net.make_packet(hdr, 100);
  a.net.sim().schedule_at(SimTime::from_seconds(31), [&] { a.net.router(kSunnyvale).originate(p); });
  a.net.sim().run_until(SimTime::from_seconds(32));
  EXPECT_TRUE(delivered);
}

TEST(LinkState, AlertExcludesSegmentEverywhere) {
  AbileneNet a;
  a.lsr->start();
  a.net.sim().run_until(SimTime::from_seconds(30));
  const PathSegment seg{kDenver, kKansasCity, kIndianapolis};
  a.net.sim().schedule_at(SimTime::from_seconds(31), [&] {
    a.lsr->announce_suspicion(kDenver, seg, {SimTime::from_seconds(25),
                                             SimTime::from_seconds(30)});
  });
  a.net.sim().run_until(SimTime::from_seconds(40));
  for (util::NodeId n = 0; n <= kNewYork; ++n) {
    ASSERT_EQ(a.lsr->banned_segments(n).size(), 1U) << abilene_name(n);
    EXPECT_EQ(a.lsr->banned_segments(n)[0], seg);
  }
  // Traffic Sunnyvale -> New York now takes the southern path.
  std::vector<util::NodeId> visited;
  for (util::NodeId n = 0; n <= kNewYork; ++n) {
    a.net.router(n).add_receive_tap(
        [&visited, n](const sim::Packet& p, util::NodeId, SimTime) {
          if (p.hdr.flow_id == 777) visited.push_back(n);
        });
  }
  sim::PacketHeader hdr;
  hdr.src = kSunnyvale;
  hdr.dst = kNewYork;
  hdr.flow_id = 777;
  const sim::Packet p = a.net.make_packet(hdr, 100);
  a.net.sim().schedule_at(SimTime::from_seconds(41), [&] { a.net.router(kSunnyvale).originate(p); });
  a.net.sim().run_until(SimTime::from_seconds(42));
  const std::vector<util::NodeId> southern{kLosAngeles, kHouston, kAtlanta, kWashington,
                                           kNewYork};
  EXPECT_EQ(visited, southern);
}

TEST(LinkState, AlertFromNonMemberIgnored) {
  // Countermeasure rule: a reporter not in the segment cannot make others
  // exclude it (a faulty router cannot frame a distant segment).
  AbileneNet a;
  a.lsr->start();
  a.net.sim().run_until(SimTime::from_seconds(30));
  const PathSegment seg{kDenver, kKansasCity, kIndianapolis};
  a.net.sim().schedule_at(SimTime::from_seconds(31), [&] {
    a.lsr->announce_suspicion(kAtlanta, seg, {SimTime::origin(), SimTime::from_seconds(1)});
  });
  a.net.sim().run_until(SimTime::from_seconds(40));
  for (util::NodeId n = 0; n <= kNewYork; ++n) {
    EXPECT_TRUE(a.lsr->banned_segments(n).empty()) << abilene_name(n);
  }
}

TEST(LinkState, SpfDelayAndHoldPaceRecomputation) {
  AbileneNet a;
  a.lsr->start();
  a.net.sim().run_until(SimTime::from_seconds(30));
  const std::size_t before = a.lsr->spf_runs(kDenver);
  // One alert triggers exactly one more SPF run (after spf_delay), not a
  // run per received flood copy.
  a.net.sim().schedule_at(SimTime::from_seconds(31), [&] {
    a.lsr->announce_suspicion(kDenver, PathSegment{kDenver, kKansasCity},
                              {SimTime::origin(), SimTime::from_seconds(1)});
  });
  a.net.sim().run_until(SimTime::from_seconds(45));
  EXPECT_EQ(a.lsr->spf_runs(kDenver), before + 1);
}

TEST(LinkState, FloodingSurvivesSuppression) {
  // A protocol-faulty router refusing to re-flood cannot stop alerts from
  // reaching every correct router, because Abilene satisfies the
  // good-path condition around any single node (Perlman robust flooding).
  AbileneNet a;
  a.lsr->suppress_flooding_at(kKansasCity);
  a.lsr->start();
  a.net.sim().run_until(SimTime::from_seconds(30));
  // LSAs still converge everywhere (Kansas City's own LSA floods because
  // origination is exempt; everyone else's routes around it).
  for (util::NodeId n = 0; n <= kNewYork; ++n) {
    EXPECT_TRUE(a.lsr->converged(n)) << abilene_name(n);
  }
  // An alert from Denver reaches every router despite the black hole.
  const PathSegment seg{kDenver, kKansasCity, kIndianapolis};
  a.net.sim().schedule_at(SimTime::from_seconds(31), [&] {
    a.lsr->announce_suspicion(kDenver, seg,
                              {SimTime::from_seconds(25), SimTime::from_seconds(30)});
  });
  a.net.sim().run_until(SimTime::from_seconds(40));
  for (util::NodeId n = 0; n <= kNewYork; ++n) {
    EXPECT_EQ(a.lsr->banned_segments(n).size(), 1U) << abilene_name(n);
  }
}

TEST(LinkState, DeadIntervalWithdrawsFailedLinkAndReroutes) {
  auto cfg = AbileneNet::fast_config();
  cfg.dead_interval = Duration::seconds(3);
  AbileneNet a(cfg);
  a.lsr->start();
  a.net.sim().run_until(SimTime::from_seconds(30));
  ASSERT_TRUE(a.lsr->neighbors(kDenver).contains(kKansasCity));

  // Cut the Denver—Kansas City link (on the northern coast-to-coast
  // path). Hellos stop crossing; after dead_interval both ends withdraw
  // the adjacency, re-originate, and the fabric reconverges around it.
  a.net.sim().schedule_at(SimTime::from_seconds(31),
                          [&] { a.net.set_link_up(kDenver, kKansasCity, false); });
  a.net.sim().run_until(SimTime::from_seconds(45));
  EXPECT_FALSE(a.lsr->neighbors(kDenver).contains(kKansasCity));
  EXPECT_FALSE(a.lsr->neighbors(kKansasCity).contains(kDenver));
  EXPECT_GT(a.lsr->last_route_change(kSunnyvale), SimTime::from_seconds(31));
  EXPECT_GE(a.lsr->route_changes(kSunnyvale), 2U);  // initial + reconvergence

  // Traffic still crosses the country on the surviving path.
  bool delivered = false;
  a.net.router(kNewYork).add_local_handler(
      [&](const sim::Packet&, util::NodeId, SimTime) { delivered = true; });
  sim::PacketHeader hdr;
  hdr.src = kSunnyvale;
  hdr.dst = kNewYork;
  const sim::Packet p = a.net.make_packet(hdr, 100);
  a.net.sim().schedule_at(SimTime::from_seconds(46),
                          [&] { a.net.router(kSunnyvale).originate(p); });
  a.net.sim().run_until(SimTime::from_seconds(47));
  EXPECT_TRUE(delivered);
}

TEST(LinkState, RouterCrashRestartReconverges) {
  auto cfg = AbileneNet::fast_config();
  cfg.dead_interval = Duration::seconds(3);
  AbileneNet a(cfg);
  a.lsr->start();
  a.net.sim().run_until(SimTime::from_seconds(30));

  a.net.sim().schedule_at(SimTime::from_seconds(31), [&] { a.net.crash_router(kKansasCity); });
  a.net.sim().run_until(SimTime::from_seconds(45));
  // Peers declared it dead and routed around it.
  EXPECT_FALSE(a.lsr->neighbors(kDenver).contains(kKansasCity));

  a.net.sim().schedule_at(SimTime::from_seconds(45.5),
                          [&] { a.net.restart_router(kKansasCity); });
  a.net.sim().run_until(SimTime::from_seconds(75));
  // The restarted router rebuilt its soft state and everyone re-adopted it.
  EXPECT_TRUE(a.lsr->neighbors(kDenver).contains(kKansasCity));
  for (util::NodeId n = 0; n <= kNewYork; ++n) {
    EXPECT_TRUE(a.lsr->converged(n)) << abilene_name(n);
  }
  // Its routes work again end to end.
  bool delivered = false;
  a.net.router(kNewYork).add_local_handler(
      [&](const sim::Packet&, util::NodeId, SimTime) { delivered = true; });
  sim::PacketHeader hdr;
  hdr.src = kKansasCity;
  hdr.dst = kNewYork;
  const sim::Packet p = a.net.make_packet(hdr, 100);
  a.net.sim().schedule_at(SimTime::from_seconds(76),
                          [&] { a.net.router(kKansasCity).originate(p); });
  a.net.sim().run_until(SimTime::from_seconds(77));
  EXPECT_TRUE(delivered);
}

TEST(LinkState, HostsFormNoAdjacenciesButStayReachable) {
  // r0 - r1 - r2 with a host off r0 and one off r2. Hosts send no hellos
  // and appear in no neighbor set, yet routers reach them via the stub
  // links their gateways advertise.
  sim::Network net{17};
  crypto::KeyRegistry keys{2024};
  auto& r0 = net.add_router("r0");
  auto& r1 = net.add_router("r1");
  auto& r2 = net.add_router("r2");
  auto& h0 = net.add_host("h0");
  auto& h2 = net.add_host("h2");
  net.connect(r0.id(), r1.id(), {});
  net.connect(r1.id(), r2.id(), {});
  net.connect(h0.id(), r0.id(), {});
  net.connect(h2.id(), r2.id(), {});
  LinkStateRouting lsr(net, keys, AbileneNet::fast_config());
  lsr.start();
  net.sim().run_until(SimTime::from_seconds(20));

  EXPECT_FALSE(lsr.neighbors(r0.id()).contains(h0.id()));
  EXPECT_EQ(lsr.neighbors(r0.id()), std::set<util::NodeId>{r1.id()});
  bool delivered = false;
  h2.add_local_handler([&](const sim::Packet&, util::NodeId, SimTime) { delivered = true; });
  sim::PacketHeader hdr;
  hdr.src = h0.id();
  hdr.dst = h2.id();
  const sim::Packet p = net.make_packet(hdr, 100);
  net.sim().schedule_at(SimTime::from_seconds(21), [&] { h0.send(p); });
  net.sim().run_until(SimTime::from_seconds(22));
  EXPECT_TRUE(delivered);
}

TEST(LinkState, SeenAlertMemoryIsBounded) {
  auto cfg = AbileneNet::fast_config();
  cfg.alert_memory = Duration::seconds(5);
  AbileneNet a(cfg);
  a.lsr->start();
  a.net.sim().run_until(SimTime::from_seconds(30));

  // First alert's interval ends at 30; its suppression record is
  // evictable from 35 on. The second alert (arriving at 60) triggers the
  // sweep, so the memory holds only the fresh record.
  a.net.sim().schedule_at(SimTime::from_seconds(31), [&] {
    a.lsr->announce_suspicion(kDenver, PathSegment{kDenver, kKansasCity},
                              {SimTime::from_seconds(25), SimTime::from_seconds(30)});
  });
  a.net.sim().run_until(SimTime::from_seconds(40));
  EXPECT_EQ(a.lsr->seen_alert_count(kNewYork), 1U);
  a.net.sim().schedule_at(SimTime::from_seconds(60), [&] {
    a.lsr->announce_suspicion(kDenver, PathSegment{kDenver, kKansasCity, kIndianapolis},
                              {SimTime::from_seconds(55), SimTime::from_seconds(59)});
  });
  a.net.sim().run_until(SimTime::from_seconds(70));
  EXPECT_EQ(a.lsr->seen_alert_count(kNewYork), 1U);
}

TEST(LinkState, TopologyViewMatchesPhysical) {
  AbileneNet a;
  a.lsr->start();
  a.net.sim().run_until(SimTime::from_seconds(30));
  const Topology& view = a.lsr->topology_view(kSeattle);
  const Topology physical = abilene_topology();
  for (util::NodeId n = 0; n < physical.node_count(); ++n) {
    EXPECT_EQ(view.degree(n), physical.degree(n)) << abilene_name(n);
  }
}

}  // namespace
}  // namespace fatih::routing

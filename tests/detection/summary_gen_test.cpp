#include "detection/summary_gen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "routing/segments.hpp"
#include "routing/topologies.hpp"
#include "tests/detection/test_net.hpp"

namespace fatih::detection {
namespace {

using testing::LineNet;
using util::Duration;
using util::NodeId;
using util::SimTime;

RoundClock one_second_rounds() { return RoundClock{SimTime::origin(), Duration::seconds(1)}; }

TEST(SummaryGenerator, InteriorRouterRecordsAlignedTraffic) {
  LineNet line(5);
  SummaryGenerator gen(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  gen.monitor(seg, 1);
  line.add_cbr(0, 4, 1, 100, SimTime::from_seconds(0.1), SimTime::from_seconds(0.9));
  line.net.sim().run_until(SimTime::from_seconds(2));
  const auto summary = gen.take_summary(seg, 0);
  EXPECT_NEAR(static_cast<double>(summary.counters.packets), 80.0, 2.0);
  EXPECT_EQ(summary.content.size(), summary.counters.packets);
}

TEST(SummaryGenerator, SinkRecordsAtReceive) {
  LineNet line(5);
  SummaryGenerator gen(line.net, line.keys, 3, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  gen.monitor(seg, 2);
  line.add_cbr(0, 4, 1, 50, SimTime::from_seconds(0.1), SimTime::from_seconds(0.9));
  line.net.sim().run_until(SimTime::from_seconds(2));
  const auto summary = gen.take_summary(seg, 0);
  EXPECT_NEAR(static_cast<double>(summary.counters.packets), 40.0, 2.0);
}

TEST(SummaryGenerator, UpstreamAndDownstreamAgreeOnCleanTraffic) {
  LineNet line(5);
  SummaryGenerator up(line.net, line.keys, 1, one_second_rounds(), *line.paths);
  SummaryGenerator down(line.net, line.keys, 3, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  up.monitor(seg, 0);
  down.monitor(seg, 2);
  line.add_cbr(0, 4, 1, 200, SimTime::from_seconds(0.05), SimTime::from_seconds(0.95));
  line.net.sim().run_until(SimTime::from_seconds(2));
  const auto s_up = up.take_summary(seg, 0);
  const auto s_down = down.take_summary(seg, 0);
  ASSERT_GT(s_up.counters.packets, 0U);
  EXPECT_EQ(s_up.counters.packets, s_down.counters.packets);
  // Same fingerprints in the same order.
  EXPECT_EQ(s_up.content, s_down.content);
}

TEST(SummaryGenerator, OffSegmentTrafficNotRecorded) {
  // Traffic 3 -> 4 does not traverse <1,2,3>; the generator at 2 must not
  // charge it to that segment.
  LineNet line(5);
  SummaryGenerator gen(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  gen.monitor(seg, 1);
  line.add_cbr(3, 4, 1, 100, SimTime::from_seconds(0.1), SimTime::from_seconds(0.9));
  line.net.sim().run_until(SimTime::from_seconds(2));
  EXPECT_EQ(gen.take_summary(seg, 0).counters.packets, 0U);
}

TEST(SummaryGenerator, ReverseDirectionNotRecorded) {
  // Traffic 4 -> 0 traverses the reverse segment <3,2,1>, not <1,2,3>.
  LineNet line(5);
  SummaryGenerator gen(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  gen.monitor(seg, 1);
  line.add_cbr(4, 0, 1, 100, SimTime::from_seconds(0.1), SimTime::from_seconds(0.9));
  line.net.sim().run_until(SimTime::from_seconds(2));
  EXPECT_EQ(gen.take_summary(seg, 0).counters.packets, 0U);
}

TEST(SummaryGenerator, BucketsByOriginationRound) {
  LineNet line(5);
  SummaryGenerator gen(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  gen.monitor(seg, 1);
  // 10 pps continuously across rounds 0..2.
  line.add_cbr(0, 4, 1, 10, SimTime::from_seconds(0.05), SimTime::from_seconds(2.95));
  line.net.sim().run_until(SimTime::from_seconds(4));
  const auto r0 = gen.take_summary(seg, 0);
  const auto r1 = gen.take_summary(seg, 1);
  const auto r2 = gen.take_summary(seg, 2);
  EXPECT_NEAR(static_cast<double>(r0.counters.packets), 10.0, 1.0);
  EXPECT_NEAR(static_cast<double>(r1.counters.packets), 10.0, 1.0);
  EXPECT_NEAR(static_cast<double>(r2.counters.packets), 10.0, 1.0);
}

TEST(SummaryGenerator, TakeSummaryConsumes) {
  LineNet line(5);
  SummaryGenerator gen(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  gen.monitor(seg, 1);
  line.add_cbr(0, 4, 1, 100, SimTime::from_seconds(0.1), SimTime::from_seconds(0.5));
  line.net.sim().run_until(SimTime::from_seconds(2));
  EXPECT_GT(gen.take_summary(seg, 0).counters.packets, 0U);
  EXPECT_EQ(gen.take_summary(seg, 0).counters.packets, 0U);  // already taken
}

TEST(SummaryGenerator, SamplingKeepsSubset) {
  LineNet line(5);
  SummaryGenerator full(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  SummaryGenerator sampled(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  full.monitor(seg, 1, 256);
  sampled.monitor(seg, 1, 64);  // keep ~25%
  line.add_cbr(0, 4, 1, 1000, SimTime::from_seconds(0.05), SimTime::from_seconds(0.95));
  line.net.sim().run_until(SimTime::from_seconds(2));
  const auto all = full.take_summary(seg, 0);
  const auto some = sampled.take_summary(seg, 0);
  ASSERT_GT(all.counters.packets, 800U);
  const double keep_ratio = static_cast<double>(some.counters.packets) /
                            static_cast<double>(all.counters.packets);
  EXPECT_NEAR(keep_ratio, 0.25, 0.08);
}

TEST(SummaryGenerator, ControlTrafficExcluded) {
  LineNet line(5);
  SummaryGenerator gen(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  gen.monitor(seg, 1);
  // Send a control packet along the segment.
  sim::PacketHeader hdr;
  hdr.src = 0;
  hdr.dst = 4;
  hdr.proto = sim::Protocol::kControl;
  const sim::Packet p = line.net.make_packet(hdr, 100);
  line.net.sim().schedule_at(SimTime::from_seconds(0.1),
                             [&] { line.net.router(0).originate(p); });
  line.net.sim().run_until(SimTime::from_seconds(1));
  EXPECT_EQ(gen.take_summary(seg, 0).counters.packets, 0U);
}

TEST(SummaryGenerator, MonitorRejectsRolesItCannotHold) {
  LineNet line(5);
  SummaryGenerator gen(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  EXPECT_THROW(gen.monitor(routing::PathSegment{2}, 0), std::invalid_argument);  // 1 node
  EXPECT_THROW(gen.monitor(routing::PathSegment{1, 2, 3}, 0), std::invalid_argument);  // r1's
  EXPECT_THROW(gen.monitor(routing::PathSegment{1, 2, 3}, 3), std::invalid_argument);  // off it
  EXPECT_NO_THROW(gen.monitor(routing::PathSegment{1, 2, 3}, 1));
}

TEST(SummaryGenerator, RolesAtAMultiNeighbourHubStayIndependent) {
  // Abilene with static shortest-path routes. Indianapolis has three
  // neighbours (Kansas City, Chicago, Atlanta) and holds Pi2 roles at
  // every position: segment source, interior and sink.
  using namespace routing;
  sim::Network net(3);
  for (NodeId n = 0; n <= kNewYork; ++n) net.add_router(abilene_name(n));
  for (const auto& l : abilene_links()) {
    sim::LinkConfig link = testing::fast_link();
    link.delay = Duration::millis(l.delay_ms);
    net.connect(l.a, l.b, link);
  }
  auto tables = std::make_shared<const RoutingTables>(abilene_topology());
  install_static_routes(net, *tables);
  const PathCache paths(tables);
  const crypto::KeyRegistry keys(777);

  std::vector<NodeId> routers;
  for (NodeId n = 0; n <= kNewYork; ++n) routers.push_back(n);
  const SegmentIndex index(tables->all_paths(routers), 1);
  const NodeId hub = kIndianapolis;
  // One generator holds every role of the hub; each other holds one.
  SummaryGenerator all(net, keys, hub, one_second_rounds(), paths);
  std::vector<std::pair<PathSegment, std::unique_ptr<SummaryGenerator>>> single;
  std::vector<bool> held(3, false);
  for (const PathSegment& seg : index.pr_pi2(hub)) {
    for (std::size_t pos = 0; pos < seg.length(); ++pos) {
      if (seg.nodes()[pos] != hub) continue;
      all.monitor(seg, pos);
      single.emplace_back(seg,
                          std::make_unique<SummaryGenerator>(net, keys, hub, one_second_rounds(),
                                                             paths));
      single.back().second->monitor(seg, pos);
      held[pos] = true;
    }
  }
  ASSERT_EQ(held, std::vector<bool>(3, true));

  // Round 0: every ordered pair of routers. Round 1 carries two flows.
  // Chicago -> Houston leaves the hub for Kansas City and then turns to
  // Houston, so <Indianapolis, KansasCity, Denver> sees it at its next
  // hop but must not record it. Kansas City -> New York is detoured from
  // 1 s through Houston and Atlanta: its stable path still names Kansas
  // City before the hub, so <KansasCity, Indianapolis, Chicago> must not
  // record it either, while <Indianapolis, Chicago, NewYork>, whose
  // source role takes any previous hop, does.
  const Path decoy = tables->path(kChicago, kHouston);
  ASSERT_EQ(decoy, (Path{kChicago, kIndianapolis, kKansasCity, kHouston}));
  ASSERT_EQ(tables->path(kKansasCity, kNewYork),
            (Path{kKansasCity, kIndianapolis, kChicago, kNewYork}));
  std::vector<std::unique_ptr<traffic::CbrSource>> sources;
  auto add_cbr = [&](NodeId src, NodeId dst, double start_s, double stop_s) {
    traffic::CbrSource::Config cfg;
    cfg.src = src;
    cfg.dst = dst;
    cfg.flow_id = static_cast<std::uint32_t>(sources.size() + 1);
    cfg.rate_pps = 40;
    cfg.start = SimTime::from_seconds(start_s);
    cfg.stop = SimTime::from_seconds(stop_s);
    sources.push_back(std::make_unique<traffic::CbrSource>(net, cfg));
  };
  for (const NodeId src : routers) {
    for (const NodeId dst : routers) {
      if (src != dst) add_cbr(src, dst, 0.05, 0.95);
    }
  }
  add_cbr(kChicago, kHouston, 1.05, 1.95);
  add_cbr(kKansasCity, kNewYork, 1.05, 1.95);
  auto detour = [&](NodeId at, NodeId via) {
    sim::Router& r = net.router(at);
    for (std::size_t i = 0; i < r.interface_count(); ++i) {
      if (r.interface(i).peer() == via) r.set_route(kNewYork, i);
    }
  };
  net.sim().schedule_at(SimTime::from_seconds(1), [&] {
    detour(kKansasCity, kHouston);
    detour(kHouston, kAtlanta);
    detour(kAtlanta, kIndianapolis);
  });
  net.sim().run_until(SimTime::from_seconds(3));

  const std::vector<PathSegment> must_skip{PathSegment{kIndianapolis, kKansasCity, kDenver},
                                           PathSegment{kKansasCity, kIndianapolis, kChicago}};
  const PathSegment leaves_hub{kIndianapolis, kChicago, kNewYork};
  std::size_t skip_roles_held = 0;
  std::uint64_t recorded = 0;
  for (auto& [seg, gen] : single) {
    skip_roles_held += std::count(must_skip.begin(), must_skip.end(), seg);
    for (const std::int64_t round : {0, 1}) {
      const auto mine = gen->take_summary(seg, round);
      const auto shared = all.take_summary(seg, round);
      EXPECT_EQ(shared.counters, mine.counters) << seg.to_string() << " round " << round;
      EXPECT_EQ(shared.content, mine.content) << seg.to_string() << " round " << round;
      if (round == 0) {
        EXPECT_GT(mine.counters.packets, 0U) << seg.to_string();
        recorded += mine.counters.packets;
      } else {
        EXPECT_EQ(mine.counters.packets > 0, seg.within(decoy) || seg == leaves_hub)
            << seg.to_string();
      }
    }
  }
  EXPECT_EQ(skip_roles_held, must_skip.size());
  EXPECT_GT(recorded, 1000U);
}

}  // namespace
}  // namespace fatih::detection

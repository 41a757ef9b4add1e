// ScenarioRun wiring: every detector option a spec sets must reach the
// engine it configures, not only the spec's hash; and under
// `routing link_state` the Fatih loop of Fig. 5.7 closes: detection,
// signed alert, reroute.
#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "routing/link_state.hpp"
#include "routing/topologies.hpp"
#include "scenario/registry.hpp"
#include "sim/network.hpp"
#include "traffic/sources.hpp"

namespace fatih::scenario {
namespace {

using util::Duration;
using util::NodeId;
using util::SimTime;

constexpr std::int64_t kSecond = 1'000'000'000;

/// True when the segment of a rendered suspicion
/// ("r3 suspects <r3,r4,r6> during ...") contains router `n`.
bool names(const std::string& suspicion, NodeId n) {
  const std::size_t open = suspicion.find('<');
  const std::size_t close = suspicion.find('>', open);
  if (open == std::string::npos || close == std::string::npos) return false;
  // Built by append, not operator+: GCC 12 -Wrestrict (see util::node_name).
  std::string segment(",");
  segment.append(suspicion, open + 1, close - open - 1).append(",");
  std::string router(",");
  router.append(util::node_name(n)).append(",");
  return segment.find(router) != std::string::npos;
}

const ScenarioSpec& fatih_spec() { return *find_scenario("abilene_fatih_kc_drop"); }

TEST(ScenarioRunner, ReliableChiShipsReportsOverTheChannel) {
  const ScenarioSpec* base = find_scenario("chi_droptail_drop20");
  ASSERT_NE(base, nullptr);
  ScenarioSpec acked = *base;
  acked.detector.reliable = true;

  const ScenarioResult plain = run_scenario(*base);
  const ScenarioResult reliable = run_scenario(acked);

  // Acks and retransmit timers are extra events: an ignored flag would
  // leave the run, and so its digest, unchanged.
  EXPECT_GT(reliable.dispatched, plain.dispatched);
  EXPECT_NE(reliable.final_digest, plain.final_digest);

  // Reliable report shipping still catches the dropping queue owner r2:
  // every suspicion, reported by r3, names it in its segment.
  ASSERT_FALSE(reliable.suspicions.empty());
  for (const std::string& s : reliable.suspicions) {
    EXPECT_NE(s.find("r2"), std::string::npos) << s;
  }
}

TEST(Fatih, CleanNetworkStaysQuiet) {
  ScenarioSpec clean = fatih_spec();
  clean.attacks.clear();
  ScenarioRun run(clean);
  run.run_to(run.end_time_ns());
  EXPECT_TRUE(run.suspicion_strings().empty());
  ASSERT_NE(run.routing(), nullptr);
  for (NodeId n = 0; n <= routing::kNewYork; ++n) {
    EXPECT_TRUE(run.routing()->banned_segments(n).empty()) << routing::abilene_name(n);
  }
}

TEST(Fatih, KansasCityAttackDetectedAndRoutedAround) {
  // The Fig. 5.7 storyline: traffic between the coasts, the Kansas City
  // router compromised to drop 20% of transit traffic from 117 s;
  // detection, alert flooding, and rerouting onto the southern path.
  ScenarioRun run(fatih_spec());
  run.run_to(150 * kSecond);
  const routing::LinkStateRouting& lsr = *run.routing();

  // (1) Detection happened and was accurate: every suspected segment
  // (precision k+2 = 3) contains Kansas City.
  const std::vector<std::string> suspicions = run.suspicion_strings();
  ASSERT_FALSE(suspicions.empty());
  for (const std::string& s : suspicions) EXPECT_TRUE(names(s, routing::kKansasCity)) << s;

  // (2) The alert propagated: every router banned at least one segment.
  for (NodeId n = 0; n <= routing::kNewYork; ++n) {
    EXPECT_FALSE(lsr.banned_segments(n).empty()) << routing::abilene_name(n);
  }

  // (3) Traffic no longer crosses the suspected segment: send a probe and
  // record its path.
  sim::Network& net = run.network();
  std::vector<NodeId> visited;
  for (NodeId n = 0; n <= routing::kNewYork; ++n) {
    net.router(n).add_receive_tap([&visited, n](const sim::Packet& p, NodeId, SimTime) {
      if (p.hdr.flow_id == 777) visited.push_back(n);
    });
  }
  sim::PacketHeader hdr;
  hdr.src = routing::kSunnyvale;
  hdr.dst = routing::kNewYork;
  hdr.flow_id = 777;
  const sim::Packet probe = net.make_packet(hdr, 100);
  net.sim().schedule_at(SimTime::from_seconds(150.5),
                        [&] { net.router(routing::kSunnyvale).originate(probe); });
  run.run_to(151 * kSecond);
  ASSERT_FALSE(visited.empty());
  EXPECT_EQ(visited.back(), routing::kNewYork);
  // The new path must avoid at least the banned middle.
  routing::Path path = visited;
  path.insert(path.begin(), routing::kSunnyvale);
  for (const auto& banned : lsr.banned_segments(routing::kSunnyvale)) {
    EXPECT_FALSE(banned.within(path)) << banned.to_string();
  }
}

TEST(Fatih, RttProbeMeasuresPathLatency) {
  // Routing has converged by the first flow (62 s); the probe rides the
  // northern path before the attack.
  ScenarioRun run(fatih_spec());
  traffic::RttProbe probe(run.network(), routing::kNewYork, routing::kSunnyvale, 900,
                          Duration::millis(500));
  probe.start(SimTime::from_seconds(62));
  run.run_to(66 * kSecond);
  ASSERT_GE(probe.samples().size(), 5U);
  // One-way 25 ms -> RTT ~50 ms.
  for (const auto& s : probe.samples()) {
    EXPECT_NEAR(s.rtt_seconds, 0.050, 0.005);
  }
}

}  // namespace
}  // namespace fatih::scenario

// ScenarioRun wiring: every detector option a spec sets must reach the
// engine it configures, not only the spec's hash.
#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <string>

#include "scenario/registry.hpp"

namespace fatih::scenario {
namespace {

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

}  // namespace
}  // namespace fatih::scenario

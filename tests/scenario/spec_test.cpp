// Scenario codec and registry: canonical round-trips, line-numbered
// rejection of malformed specs, and the builtin corpus invariants.
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <set>

namespace fatih::scenario {
namespace {

TEST(SpecCodec, EveryBuiltinRoundTripsCanonically) {
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    const std::string text = encode(spec);
    ScenarioSpec decoded;
    std::string error;
    ASSERT_TRUE(decode(text, decoded, error)) << spec.name << ": " << error;
    // Canonical form: decode(encode(s)) re-encodes byte-identically.
    EXPECT_EQ(encode(decoded), text) << spec.name;
    EXPECT_EQ(spec_hash(decoded), spec_hash(spec)) << spec.name;
  }
}

TEST(SpecCodec, ToleratesCommentsAndBlankLines) {
  const ScenarioSpec& spec = builtin_scenarios().front();
  std::string text = encode(spec);
  text.insert(text.find('\n') + 1, "# a comment\n\n");
  ScenarioSpec decoded;
  std::string error;
  ASSERT_TRUE(decode(text, decoded, error)) << error;
  EXPECT_EQ(encode(decoded), encode(spec));
}

TEST(SpecCodec, RejectsMissingHeader) {
  ScenarioSpec out;
  std::string error;
  EXPECT_FALSE(decode("name x\n", out, error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(SpecCodec, RejectsUnknownStatementWithLineNumber) {
  ScenarioSpec out;
  std::string error;
  EXPECT_FALSE(decode("scenario v1\nname x\nbogus 1\n", out, error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(SpecCodec, RejectsBadEnumAndBadInteger) {
  ScenarioSpec out;
  std::string error;
  EXPECT_FALSE(decode("scenario v1\nname x\ntopology moebius\n", out, error));
  EXPECT_FALSE(decode("scenario v1\nname x\nseed twelve\n", out, error));
  EXPECT_FALSE(decode("scenario v1\nname x\nrouting ospf\n", out, error));
}

TEST(SpecCodec, RejectsNodeIdsOutsideTheTopology) {
  // line4 builds routers 0..3. Each case names router 99 in one field, and
  // the error names the statement and the field.
  const std::string base = encode(*find_scenario("line4_pik2_clean"));
  const struct {
    std::string text;
    const char* expected;
  } cases[] = {
      {base + "flow cbr src=99 dst=3 flow_id=9 rate_mpps=1000\n", "flow statement 3: src=99"},
      {base + "flow cbr src=0 dst=99 flow_id=9 rate_mpps=1000\n", "flow statement 3: dst=99"},
      {base + "attack rate_drop at=99\n", "attack statement 1: at=99"},
      {base + "churn link_down at_ns=1700000000 a=99 b=100\n", "churn statement 1: a=99"},
      {base + "churn link_down at_ns=1700000000 a=1 b=99\n", "churn statement 1: b=99"},
      {"scenario v1\nname x\ndetector pik2 terminals=0,99\n", "detector statement 1: terminals=99"},
  };
  for (const auto& c : cases) {
    ScenarioSpec out;
    std::string error;
    EXPECT_FALSE(decode(c.text, out, error)) << c.expected;
    EXPECT_NE(error.find(c.expected), std::string::npos) << error;
  }
}

TEST(SpecCodec, RejectsMissingName) {
  ScenarioSpec out;
  std::string error;
  EXPECT_FALSE(decode("scenario v1\nseed 1\n", out, error));
}

TEST(SpecCodec, HashDistinguishesScenarios) {
  std::set<std::uint64_t> hashes;
  for (const ScenarioSpec& spec : builtin_scenarios()) hashes.insert(spec_hash(spec));
  EXPECT_EQ(hashes.size(), builtin_scenarios().size());
}

TEST(Registry, SortedAndSearchable) {
  const auto& all = builtin_scenarios();
  ASSERT_FALSE(all.empty());
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].name, all[i].name);
  }
  EXPECT_EQ(find_scenario(all.front().name), &all.front());
  EXPECT_EQ(find_scenario("no_such_scenario"), nullptr);
}

TEST(Registry, CoversEveryProtocolAndTopology) {
  std::set<DetectorKind> detectors;
  std::set<TopologyKind> topologies;
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    detectors.insert(spec.detector.kind);
    topologies.insert(spec.topology);
  }
  EXPECT_EQ(detectors.size(), 3u);
  EXPECT_EQ(topologies.size(), 4u);
}

}  // namespace
}  // namespace fatih::scenario

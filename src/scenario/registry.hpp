// The builtin scenario corpus.
//
// Re-expresses the scenarios the benches and tests hard-code — the line
// networks of the detection tests, the Abilene no-attack forwarding
// substrate (pinned by Network.AbileneNoAttackMatchesSeedEngineCounts in
// tests/sim/network_test.cpp), the Fig. 6.4 chi bottleneck with its
// drop-tail / RED attack variants (bench/chi_fixture.hpp, the fig6_*
// setups), and the Fig. 5.7 Fatih loop on Abilene that
// bench/fig5_7_fatih_timeline runs — as declarative ScenarioSpecs. These
// are the seeds of the golden regression corpus (BENCH_fleet_corpus.json):
// every spec here is run by tools/fatih-fleet and its suspicion set and
// counters are pinned.
#pragma once

#include <string_view>
#include <vector>

#include "scenario/spec.hpp"

namespace fatih::scenario {

/// All builtin scenarios, sorted by name.
[[nodiscard]] const std::vector<ScenarioSpec>& builtin_scenarios();

/// Looks up a builtin by name; nullptr when unknown.
[[nodiscard]] const ScenarioSpec* find_scenario(std::string_view name);

}  // namespace fatih::scenario

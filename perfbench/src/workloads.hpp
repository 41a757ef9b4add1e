// The three benchmark workloads, generated from a seed.
//
// Each workload is a plain scenario::ScenarioSpec plus the ground truth of
// the one data-plane attack it carries, so the benchmark can drive it
// through the public ScenarioRun API and check the suspicion set it
// produces. Same (name, seed, scale) => byte-identical spec.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/spec.hpp"
#include "util/types.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  fatih::scenario::ScenarioSpec spec;
  fatih::util::NodeId attacker = fatih::util::kInvalidNode;
  std::int64_t onset_ns = 0;  ///< the attack's active_from
  std::size_t precision = 0;  ///< a-Accuracy bound: k+2 for Pi(k+2), 2 for Pi2 and chi
  /// Workers of the parallel shard run, min(4, usable cores); 0 for the
  /// classic engine. Timed runs use one worker (see README.md); a run on
  /// this many workers must reproduce their digest.
  unsigned threads = 0;
  /// Ends of the paths whose segments the detector monitors; the traced
  /// pass re-enumerates their segments to time routing on its own.
  std::vector<fatih::util::NodeId> terminals;
};

/// Names of every workload, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds workload `name` from `seed`. `smoke` shortens the horizon and
/// thins the traffic so a run takes well under a second. Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(std::string_view name, std::uint64_t seed, bool smoke);

/// The same spec with detection detached: Pi2/Pi(k+2) keep one terminal
/// and chi is swapped for a one-terminal Pi(k+2), so no segment is
/// monitored and no summary is built. The data plane is unchanged.
[[nodiscard]] fatih::scenario::ScenarioSpec detached(const Workload& w);

}  // namespace perfbench

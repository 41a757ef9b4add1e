// Correctness gate: every run's suspicion set, parsed back from
// ScenarioRun::suspicion_strings(), is checked against the workload's
// ground truth with the spec checkers of detection/spec.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "detection/types.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Parses one Suspicion::to_string() rendering. Returns false unless the
/// parsed value renders back to exactly `text`.
[[nodiscard]] bool parse_suspicion(const std::string& text, fatih::detection::Suspicion& out);

struct GateReport {
  std::size_t suspicions = 0;
  /// Suspicions by correct reporters that break a-Accuracy: naming only
  /// correct routers, or longer than the precision bound.
  std::size_t false_suspicions = 0;
  bool complete = false;  ///< some suspicion contains the attacker
  /// Rounds from attack onset to the first round in which a correct
  /// router suspects a segment containing the attacker; the onset round
  /// itself counts as 1. 0 when never detected.
  std::int64_t detect_delay_rounds = 0;
  std::string error{};  ///< why the gate failed; empty when it passed

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Runs the gate on one run's suspicion strings.
[[nodiscard]] GateReport check_run(const Workload& w, const std::vector<std::string>& suspicions);

/// Feeds the gate two corrupted copies of a passing suspicion set: one
/// with an injected false suspicion, one with every detection of the
/// attacker removed. Returns an empty string when the gate rejects both,
/// otherwise what it let through.
[[nodiscard]] std::string gate_self_test(const Workload& w,
                                         const std::vector<std::string>& passing);

}  // namespace perfbench

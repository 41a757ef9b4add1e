// Failure-detector specification types (dissertation §4.2.2).
//
// A detector reports suspicions as (path-segment, time-interval) pairs.
// The spec properties — a-Accuracy and a-Completeness — are checked
// against ground truth by the harness in detection/spec.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "routing/segments.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace fatih::detection {

/// A reported suspicion: some router within `segment` behaved in a faulty
/// manner during `interval`.
struct Suspicion {
  util::NodeId reporter = util::kInvalidNode;
  routing::PathSegment segment{};
  util::TimeInterval interval{};
  /// Detector-specific confidence in [0,1]; 1 for deterministic detectors.
  // fatih-lint: allow(float-free-digest) codecs copy the IEEE-754 bit pattern verbatim; detectors assign it from deterministic expressions only
  double confidence = 1.0;
  /// Free-form cause tag ("content-mismatch", "exchange-timeout",
  /// "queue-single", "queue-combined", ...) for forensics.
  std::string cause{};

  [[nodiscard]] std::string to_string() const;
};

/// Callback fired when an engine raises a suspicion (response layer).
using SuspicionHandler = std::function<void(const Suspicion&)>;

/// Uniform introspection snapshot every engine (pi2, pik2, chi) exposes as
/// `counters()`. One struct with one set of names so tests and benches read
/// any engine the same way; each counted step is also a trace event of the
/// engine's TraceSource (kRoundOpen, kRoundClose, kRoundInvalidated,
/// kSuspicionRaised).
struct DetectorCounters {
  /// Rounds whose evaluation was scheduled (round timer fired).
  std::uint64_t rounds_opened = 0;
  /// Rounds that reached evaluation (including partially invalidated ones).
  std::uint64_t rounds_evaluated = 0;
  /// (segment, round) evaluations skipped for churn; never suspicions.
  std::uint64_t rounds_invalidated = 0;
  /// Suspicions raised (post-dedup).
  std::uint64_t suspicions = 0;
};

/// Identifies one traffic-validation round: rounds partition time into
/// intervals of length tau starting at the epoch.
struct RoundClock {
  util::SimTime epoch;
  util::Duration tau = util::Duration::seconds(5);

  [[nodiscard]] std::int64_t round_of(util::SimTime t) const {
    return (t - epoch).count_nanos() / tau.count_nanos();
  }
  [[nodiscard]] util::TimeInterval interval_of(std::int64_t round) const {
    return {epoch + tau * round, epoch + tau * (round + 1)};
  }
};

}  // namespace fatih::detection

// Trace-vs-stats checks: an engine keeps its counters in its own stats
// struct and records each counted step as a trace event, so after a run
// the two must agree. Tests reach for these helpers to pin that.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "detection/reliable.hpp"
#include "detection/types.hpp"
#include "obs/trace.hpp"

namespace fatih::detection::testing {

/// The retained events of `code` that `source` emitted, oldest first.
inline std::vector<obs::TraceEvent> traced(const obs::TraceSink& sink, obs::TraceSource source,
                                           obs::TraceCode code) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& ev : sink.events()) {
    if (ev.source == source && ev.code == code) out.push_back(ev);
  }
  return out;
}

/// The sum of the values of those events.
inline std::uint64_t traced_sum(const obs::TraceSink& sink, obs::TraceSource source,
                                obs::TraceCode code) {
  const std::vector<obs::TraceEvent> evs = traced(sink, source, code);
  return std::accumulate(evs.begin(), evs.end(), std::uint64_t{0},
                         [](std::uint64_t s, const obs::TraceEvent& ev) { return s + ev.value; });
}

/// A detection engine's DetectorCounters equal its own round and
/// suspicion events.
inline void expect_counters_traced(const obs::TraceSink& sink, obs::TraceSource source,
                                   const DetectorCounters& c) {
  SCOPED_TRACE(obs::to_string(source));
  using obs::TraceCode;
  EXPECT_EQ(traced(sink, source, TraceCode::kRoundOpen).size(), c.rounds_opened);
  EXPECT_EQ(traced(sink, source, TraceCode::kRoundClose).size(), c.rounds_evaluated);
  EXPECT_EQ(traced_sum(sink, source, TraceCode::kRoundInvalidated), c.rounds_invalidated);
  EXPECT_EQ(traced(sink, source, TraceCode::kSuspicionRaised).size(), c.suspicions);
}

/// A reliable channel's Stats equal its kReliable exchange events. Acks
/// sent and duplicates have no event of their own.
inline void expect_reliable_traced(const obs::TraceSink& sink, const ReliableChannel::Stats& s) {
  using obs::TraceCode;
  constexpr obs::TraceSource kSrc = obs::TraceSource::kReliable;
  EXPECT_EQ(traced(sink, kSrc, TraceCode::kExchangeSend).size(), s.messages);
  EXPECT_EQ(traced(sink, kSrc, TraceCode::kExchangeRetransmit).size(), s.retransmits);
  EXPECT_EQ(traced(sink, kSrc, TraceCode::kExchangeFailed).size(), s.failures);
  EXPECT_EQ(traced(sink, kSrc, TraceCode::kExchangeAck).size(), s.acks_received);
  EXPECT_EQ(s.transmissions, s.messages + s.retransmits);
}

}  // namespace fatih::detection::testing

// Deterministic structured trace sink.
//
// Every layer of the system (sim, routing, detection) emits
// small POD trace events into a ring-buffered TraceSink attached to the
// Simulator. Because the engine is single-threaded and simulated time
// never moves backward, emit order IS (sim-time, sequence) order: two runs
// with the same seed produce byte-identical serialized traces, which is
// what makes the layer testable (tests/obs/trace_determinism_test.cpp) and
// lets benches replay a sink instead of installing bespoke hooks.
//
// Cost model:
//   * compiled out (FATIH_TRACE=0): the FATIH_TRACE_EMIT macro expands to
//     nothing — call arguments are never evaluated, zero overhead;
//   * compiled in, no sink attached: one pointer load and branch;
//   * attached but category disabled: one array-indexed flag test;
//   * recording: a struct copy into a preallocated ring slot (events are
//     overwritten oldest-first past capacity, with the loss counted).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"
#include "util/types.hpp"

// Compile-time gate for all trace instrumentation in the hot paths.
// Defaults on; configure with -DFATIH_TRACE=0 (CMake option FATIH_TRACE)
// to compile every touch-point out entirely.
#ifndef FATIH_TRACE
#define FATIH_TRACE 1
#endif

#if FATIH_TRACE
/// Emits through `sink` (an obs::TraceSink*) iff it is attached:
///   FATIH_TRACE_EMIT(sim.trace(), drop(now, code, a, b, uid));
#define FATIH_TRACE_EMIT(sink, call)                                      \
  do {                                                                    \
    if (auto* fatih_trace_sink_ = (sink); fatih_trace_sink_ != nullptr) { \
      fatih_trace_sink_->call;                                            \
    }                                                                     \
  } while (0)
#else
#define FATIH_TRACE_EMIT(sink, call) \
  do {                               \
  } while (0)
#endif

namespace fatih::obs {

/// Event taxonomy. One category per kind of question a timeline answers;
/// runtime enable is per category (TraceConfig).
enum class TraceCategory : std::uint8_t {
  kDrop = 0,    ///< a packet died, with its ground-truth reason
  kQueue,       ///< queue depth sample at enqueue
  kRoute,       ///< SPF firings, route changes, link/node status, alerts
  kRound,       ///< detection round open / close / invalidate
  kExchange,    ///< summary exchange send / ack / timeout / failure
  kSuspicion,   ///< a detector raised a suspicion
  kAnnotation,  ///< free-form experiment markers (attack on, commission)
  kByzantine,   ///< control-plane verification: rejects, proofs, convictions
};
inline constexpr std::size_t kTraceCategoryCount = 8;
[[nodiscard]] const char* to_string(TraceCategory c);

/// Category-specific event codes (one flat enum so a code renders the same
/// name everywhere). The kDrop block mirrors sim::DropReason in order; the
/// sim layer maps between them with an exhaustive switch.
enum class TraceCode : std::uint16_t {
  kNone = 0,
  // kDrop
  kDropCongestion,
  kDropRedEarly,
  kDropMalicious,
  kDropTtlExpired,
  kDropNoRoute,
  kDropLinkFault,
  kDropLinkDown,
  kDropNodeDown,
  // kQueue
  kQueueDepth,
  // kRoute
  kSpfScheduled,
  kSpfRun,
  kRouteChange,
  kAlertAccepted,
  kLinkUp,
  kLinkDown,
  kNodeUp,
  kNodeDown,
  // kRound
  kRoundOpen,
  kRoundClose,
  kRoundInvalidated,
  // kExchange
  kExchangeSend,
  kExchangeRetransmit,
  kExchangeAck,
  kExchangeTimeout,
  kExchangeFailed,
  // kSuspicion
  kSuspicionRaised,
  // kAnnotation
  kAnnotation,
  // kByzantine
  kControlRejected,     ///< a control message failed verification (note = reason)
  kEquivocationProven,  ///< two conflicting signed statements for one key
  kAccusation,          ///< a signed accusation was accepted into the ledger
  kConviction,          ///< the evidence layer convicted a router
};
[[nodiscard]] const char* to_string(TraceCode c);

/// Which subsystem emitted the event (distinguishes e.g. a pik2 logical
/// exchange send from the reliable transport's per-attempt sends).
enum class TraceSource : std::uint8_t {
  kNone = 0,
  kSim,
  kRouting,
  kPi2,
  kPik2,
  kChi,
  kReliable,
  kBench,
  kConviction,  ///< the evidence-based conviction layer
};
[[nodiscard]] const char* to_string(TraceSource s);

/// One trace record. Fixed-size POD so the ring buffer never allocates;
/// `note` carries a short tag (suspicion cause, annotation text) truncated
/// to fit.
struct TraceEvent {
  util::SimTime at{};
  std::uint64_t seq = 0;  ///< emit order; the deterministic tiebreak
  TraceCategory category = TraceCategory::kAnnotation;
  TraceCode code = TraceCode::kNone;
  TraceSource source = TraceSource::kNone;
  util::NodeId a = util::kInvalidNode;  ///< primary actor (node, reporter)
  util::NodeId b = util::kInvalidNode;  ///< secondary actor (peer, target)
  std::int64_t round = -1;              ///< detection round, -1 = n/a
  std::uint64_t value = 0;              ///< payload (bytes, count, msg key)
  // fatih-lint: allow(float-free-digest) output-only payload: JSONL formatting rounds it to fixed decimals and it never feeds a state digest
  double real = 0.0;                    ///< payload (fill fraction, confidence)
  std::array<char, 40> note{};          ///< NUL-terminated short tag

  void set_note(const char* s);
  [[nodiscard]] const char* note_c_str() const { return note.data(); }
};

/// Runtime switchboard: which categories record.
struct TraceConfig {
  std::size_t capacity = 1 << 15;  ///< ring slots; oldest overwritten
  std::array<bool, kTraceCategoryCount> enabled;

  TraceConfig() { enabled.fill(true); }
};

/// The ring-buffered event recorder. Single-threaded, like the simulator.
class TraceSink {
 public:
  explicit TraceSink(TraceConfig config = {});

  [[nodiscard]] const TraceConfig& config() const { return config_; }
  [[nodiscard]] bool enabled(TraceCategory cat) const {
    return config_.enabled[static_cast<std::size_t>(cat)];
  }

  /// Records `ev` if its category is enabled; stamps
  /// the sequence number. `ev.at` must be the current simulated time
  /// (callers pass sim.now()); emit order is the determinism tiebreak.
  void emit(TraceEvent ev);

  // Typed emitters for the instrumented layers (each fills one event and
  // calls emit()). Kept as single calls so FATIH_TRACE_EMIT wraps them.
  void drop(util::SimTime at, TraceCode reason, util::NodeId node, util::NodeId peer,
            std::uint64_t packet_uid);
  void queue_depth(util::SimTime at, util::NodeId node, util::NodeId peer, std::uint64_t bytes,
                   double fill);
  void route(util::SimTime at, TraceCode code, util::NodeId a,
             util::NodeId b = util::kInvalidNode, std::uint64_t value = 0);
  void round_event(util::SimTime at, TraceSource src, TraceCode code, std::int64_t round,
                   std::uint64_t value = 0);
  void exchange(util::SimTime at, TraceSource src, TraceCode code, util::NodeId from,
                util::NodeId to, std::int64_t round, std::uint64_t value = 0);
  void suspicion(util::SimTime at, TraceSource src, util::NodeId reporter,
                 util::NodeId segment_front, util::NodeId segment_back,
                 std::size_t segment_len, std::int64_t round, double confidence,
                 const char* cause);
  void annotate(util::SimTime at, const char* label);
  void byzantine(util::SimTime at, TraceSource src, TraceCode code, util::NodeId a,
                 util::NodeId b, std::int64_t round, std::uint64_t value, const char* note);

  /// Events written to the ring (enabled categories only).
  [[nodiscard]] std::uint64_t recorded() const { return next_seq_; }
  /// Recorded events already overwritten by newer ones.
  [[nodiscard]] std::uint64_t overwritten() const {
    return next_seq_ - static_cast<std::uint64_t>(size());
  }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }

  /// The retained events, oldest first (ascending seq).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Resets the ring and all counters (config stays).
  void clear();

  /// Deterministic serialization: one JSON object per line, oldest first.
  /// Identical seeds => byte-identical output.
  [[nodiscard]] std::string to_jsonl() const;
  [[nodiscard]] static std::string to_json(const TraceEvent& ev);

 private:
  TraceConfig config_;
  std::vector<TraceEvent> ring_;  ///< grows to capacity, then wraps
  std::size_t head_ = 0;          ///< next write position once full
  std::uint64_t next_seq_ = 0;  ///< also the count of recorded events
};

}  // namespace fatih::obs

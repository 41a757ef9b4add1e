// Protocol chi (dissertation ch. 6): compromised-router detection that
// dynamically infers congestive packet loss, so residual losses can be
// attributed to malice without a static threshold.
//
// For each monitored output queue Q of router r toward rd (Fig. 6.1):
//   * every neighbor rs of r records Tinfo(rs, Qin): fingerprint, size,
//     flow and PREDICTED entry time (transmit start + serialization +
//     propagation + r's nominal processing delay) of every packet it feeds
//     toward Q;
//   * r itself reports the packets it originates into Q (the Toriginated
//     term of §2.3's footnote) — a protocol-faulty r may lie here, which
//     the adversarial tests exercise;
//   * rd records Tinfo(rd, Qout) locally from arrivals: exit time =
//     arrival - propagation - serialization;
//   * at the end of each round the neighbors ship signed reports to rd,
//     which replays Q (§6.2.1): exits subtract, entries that later exit
//     add, entries that never exit are drops — congestive iff the
//     predicted queue could not hold them.
//
// Because processing jitter makes prediction inexact, drops are judged
// statistically: a single-packet confidence test (Fig. 6.2) and a combined
// Z-test over a round's losses (§6.2.1), using the error model X = qact -
// qpred ~ N(mu, sigma) calibrated during a trusted learning period.
//
// The RED variant (§6.5) replays the deterministic RedState over the same
// streams to recover each packet's legitimate drop probability p_i, then
// checks observed drops against sum(p_i) globally and per flow (Fig. 6.10).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/keys.hpp"
#include "detection/byzantine.hpp"
#include "detection/messages.hpp"
#include "detection/path_cache.hpp"
#include "detection/reliable.hpp"
#include "detection/round_driver.hpp"
#include "detection/types.hpp"
#include "sim/network.hpp"
#include "sim/red.hpp"
#include "util/flat_map.hpp"
#include "validation/fingerprint.hpp"
#include "util/stats.hpp"

namespace fatih::detection {

struct ChiConfig {
  RoundClock clock;
  /// Report shipping delay after round end; must exceed `grace`.
  util::Duration settle = util::Duration::millis(400);
  /// A packet entering the queue must have exited within `grace` or it is
  /// classified as dropped (max queueing delay + slack).
  util::Duration grace = util::Duration::millis(200);
  /// Rounds of trusted calibration for (mu, sigma) of qact - qpred.
  std::int64_t learning_rounds = 4;
  /// Target significance for the single-packet test (§6.1.3).
  double single_threshold = 0.99;
  /// Target significance for the combined Z-test.
  double combined_threshold = 0.999;
  /// Z threshold for the RED per-flow / global drop-count test (per
  /// round), applied to overdispersion-normalized z scores.
  double red_z_threshold = 5.0;
  /// Z threshold for the cumulative per-flow test (evidence accumulated
  /// across rounds; catches rate-limited attacks like Fig. 6.15's 5%).
  double red_cumulative_z_threshold = 5.0;
  /// Suspicious-count test: H0 probability of a congestive drop looking
  /// individually suspicious, the z threshold, and the minimum count.
  double count_test_p0 = 0.05;
  double count_z_threshold = 4.0;
  std::uint64_t count_test_min = 8;
  /// Conservation of timeliness (§2.4.1): a packet's queue sojourn can
  /// never legitimately exceed a full queue's drain time; anything beyond
  /// (limit drain time) * delay_slack + grace is a malicious delay.
  double delay_slack = 1.5;
  std::uint64_t delayed_packets_min = 3;  ///< per-round alarm threshold
  /// When enabled, ChiEngine ships every report part over a shared
  /// ack/retransmit channel (one per network), so neighbor reports
  /// survive lossy control links; `settle` must cover the retry schedule.
  ReliableConfig reliable;
  std::int64_t rounds = 0;  ///< 0 = run until simulation ends
};

/// Validator for one output queue (r -> rd), hosted at rd. It raises at
/// most one suspicion per (round, cause).
class QueueValidator : public RoundDriver {
 public:
  QueueValidator(sim::Network& net, const crypto::KeyRegistry& keys, const PathCache& paths,
                 util::NodeId queue_owner, util::NodeId queue_peer, ChiConfig config);

  /// Starts the two round chains: reports ship at each round end plus
  /// settle/4, and the queue replay validates at round end plus settle.
  void start();

  /// Calibrated error-model parameters (valid after learning completes).
  [[nodiscard]] double mu() const { return mu_; }
  [[nodiscard]] double sigma() const { return sigma_; }
  [[nodiscard]] bool learned() const { return learned_; }

  /// Per-round diagnostics for the benches.
  struct RoundStats {
    std::int64_t round = 0;
    std::uint64_t entries = 0;
    std::uint64_t exits = 0;
    std::uint64_t drops = 0;
    std::uint64_t congestive = 0;  ///< drops explained by the queue model
    std::uint64_t suspicious = 0;  ///< drops the model cannot explain
    std::uint64_t delayed = 0;     ///< sojourns beyond any legitimate queueing
    double max_single_confidence = 0.0;
    double combined_confidence = 0.0;
    double red_expected_drops = 0.0;
    double red_max_flow_z = 0.0;
    bool alarmed = false;
    bool invalidated = false;  ///< round straddled a route change (churn)
  };
  [[nodiscard]] const std::vector<RoundStats>& rounds() const { return round_stats_; }

  /// FNV fingerprint of the validator's evolving state: watermark,
  /// counters, calibration (mu/sigma bit patterns), per-round stats and
  /// replay-queue occupancy, for checkpoint digests.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

  /// Makes a reporter's shipped report lie (protocol-fault injection): the
  /// mutator may add/remove records or return false to suppress entirely.
  /// Works for the owner's self-report AND for any neighbor — a lying
  /// neighbor is how the framing tests try to pin drops on an honest r.
  using SelfReportMutator = std::function<bool(ChiReport&)>;
  void set_report_mutator(util::NodeId reporter, SelfReportMutator m) {
    mutators_[reporter] = std::move(m);
  }
  void set_self_report_mutator(SelfReportMutator m) { mutators_[owner_] = std::move(m); }

  /// Adversarial entry: signs `report` with `from`'s own key and ships it
  /// to rd. A second, conflicting part for an already-shipped (reporter,
  /// round, part) is an equivocation rd can prove with the two envelopes.
  void inject_report(util::NodeId from, const ChiReport& report);

  /// Ground-truth error samples observed during learning (tests).
  [[nodiscard]] const util::RunningStats& error_stats() const { return error_stats_; }

  /// Observer of each raw calibration sample (benches build histograms).
  void set_error_sample_hook(std::function<void(double)> hook) {
    error_sample_hook_ = std::move(hook);
  }

  /// Delivery entry point: a signed neighbor/self report arrived at rd.
  void on_report(const ChiReportPayload& payload);

  /// Ships report parts over `ch` (reliable transport) instead of raw
  /// control packets; `ch` must outlive the validator. Set by ChiEngine.
  void set_channel(ReliableChannel* ch) { channel_ = ch; }

 private:
  struct Entry {
    ChiRecord rec;
    util::NodeId from = util::kInvalidNode;
  };

  void install_taps();
  /// The Tinfo record of `p` at (predicted or backdated) time `ts`.
  [[nodiscard]] ChiRecord record(const sim::Packet& p, util::SimTime ts) const;
  void ship_reports(std::int64_t round);
  void validate(std::int64_t round);
  void stage_ready_entries(util::SimTime upto, RoundStats& stats);
  void calibrate(validation::Fingerprint fp);
  void replay_droptail(util::SimTime upto, RoundStats& stats);
  void replay_red(util::SimTime upto, RoundStats& stats);
  /// Raises a suspicion, once per (round, cause). An empty `segment`
  /// means "attribute the round's unexplained drops": when every
  /// suspicious drop was fed by a single reporter rs != r, the segment is
  /// {rs, r} (either r dropped rs's packets or rs lied about sending
  /// them); otherwise the queue pair {r, rd}.
  void alarm(std::int64_t round, const char* cause, double confidence,
             const routing::PathSegment& segment = {});
  [[nodiscard]] routing::PathSegment attributed_segment() const;

  util::NodeId owner_;  ///< r
  util::NodeId peer_;   ///< rd
  ChiConfig config_;
  ReliableChannel* channel_ = nullptr;
  validation::FingerprintHasher fp_{crypto::SipKey{}};
  sim::LinkParams link_;           ///< the r -> rd link
  std::size_t queue_limit_ = 0;    ///< bytes
  util::Duration owner_proc_;      ///< r's nominal processing delay
  std::optional<sim::RedParams> red_;  ///< set when Q is a RED queue

  // Staging at the neighbors (per neighbor, per round) before shipping.
  // The per-round accounting stores are flat sorted-vector containers
  // (util/flat_map.hpp): std::map iteration order — determinism is
  // load-bearing — with dense lookups. The two fingerprint-keyed stores,
  // exits_ and qact_probe_, are hash maps instead (see there).
  util::FlatMap<std::pair<util::NodeId, std::int64_t>, std::vector<ChiRecord>> neighbor_staged_;
  // Arrived reports, merged; all entries not yet replayed, time-ordered.
  std::vector<Entry> pending_entries_;
  // Exits observed locally at rd: fp -> record (consumed by replay). Keys
  // are random fingerprints arriving per packet, thousands per round. Only
  // inserted, probed, erased by key and aged with std::erase_if under a
  // pure predicate, never iterated, so a hash map keeps each O(1) and no
  // order reaches any output. emplace keeps a repeated fingerprint's first
  // record.
  std::unordered_map<validation::Fingerprint, ChiRecord> exits_;
  // Which neighbors owe a report for each round.
  util::FlatMap<std::int64_t, util::FlatSet<util::NodeId>> reports_due_;
  util::FlatSet<std::pair<util::NodeId, std::int64_t>> reports_seen_;  // all parts arrived
  // Distinct parts arrived so far; the ledger spots duplicate parts.
  util::FlatMap<std::pair<util::NodeId, std::int64_t>, std::uint32_t> parts_seen_;
  // Statements are (reporter, part, round).
  StatementLedger<std::tuple<util::NodeId, std::uint32_t, std::int64_t>> ledger_;
  // Per-reporter tally of this round's unexplained drops (framing defense).
  util::FlatMap<util::NodeId, std::uint64_t> suspicious_by_;

  // Replay state. Events are merged into a time-ordered queue that
  // persists across rounds: a departure later than this round's horizon
  // must not be applied before next round's earlier arrivals. The queue is
  // a flat struct-of-rounds store: a vector kept sorted from events_head_
  // onward (each round's batch is sorted then inplace_merged against the
  // unconsumed tail) and consumed by advancing the head cursor — no
  // node allocations and no tail shifting, with the exact ordering the
  // old std::set comparator produced (ts, arrivals-before-departures,
  // insertion seq), so replay order is unchanged.
  struct ReplayEvent {
    util::SimTime ts{};
    bool departure = false;
    bool matched = false;
    bool control = false;
    std::uint32_t ps = 0;
    std::uint32_t flow = 0;
    validation::Fingerprint fp = 0;
    util::NodeId from = util::kInvalidNode;  ///< reporter that claimed the entry
    std::uint64_t seq = 0;  // insertion tie-break

    bool operator<(const ReplayEvent& o) const {
      if (ts != o.ts) return ts < o.ts;
      if (departure != o.departure) return !departure;  // arrivals first
      return seq < o.seq;
    }
  };
  std::vector<ReplayEvent> events_;  ///< sorted from events_head_ on
  std::size_t events_head_ = 0;      ///< first unconsumed event
  std::uint64_t event_seq_ = 0;
  /// Drops the consumed prefix once it dominates the buffer.
  void compact_events();
  double qpred_ = 0.0;
  double max_entry_ps_ = 0.0;  ///< largest packet seen; bounds the race error
  // Cumulative per-flow drop accounting for the RED variant.
  struct FlowCum {
    double expected = 0.0;
    double variance = 0.0;
    std::uint64_t observed = 0;
  };
  util::FlatMap<std::uint32_t, FlowCum> red_cum_;
  FlowCum red_cum_global_;
  /// RED drops cluster (the count-reset dynamics correlate them), so the
  /// Bernoulli variance understates per-flow spread. The dispersion of
  /// per-round standardized residuals is tracked online and divides the z
  /// scores — a self-calibrating overdispersion correction.
  util::RunningStats red_residual_sq_;
  sim::RedState red_state_;

  // Learning.
  // fp -> qact at entry. Same access pattern as exits_ (insert, probe,
  // erase by key, clear; never iterated), so a hash map; a repeated
  // fingerprint overwrites.
  std::unordered_map<validation::Fingerprint, double> qact_probe_;
  util::RunningStats error_stats_;
  std::function<void(double)> error_sample_hook_;
  bool learned_ = false;
  double mu_ = 0.0;
  double sigma_ = 1.0;

  std::vector<RoundStats> round_stats_;
  util::FlatMap<util::NodeId, SelfReportMutator> mutators_;
};

/// Convenience wrapper: a fleet of QueueValidators covering every
/// router-to-router queue in the network (or a chosen subset).
class ChiEngine {
 public:
  ChiEngine(sim::Network& net, const crypto::KeyRegistry& keys, const PathCache& paths,
            ChiConfig config);

  /// Monitors one queue; returns the validator for inspection.
  QueueValidator& monitor_queue(util::NodeId owner, util::NodeId peer);
  /// Monitors every router-to-router queue.
  void monitor_all();

  void start();

  [[nodiscard]] std::vector<Suspicion> all_suspicions() const;
  /// Uniform engine introspection: the validators' counters, summed.
  [[nodiscard]] DetectorCounters counters() const;
  void set_suspicion_handler(SuspicionHandler h);

  /// Optional conviction layer, forwarded to every validator (existing and
  /// future).
  void set_conviction_engine(ConvictionEngine* c);
  /// Control-plane verification counters, summed over the validators.
  [[nodiscard]] ByzantineStats guard_stats() const;

  [[nodiscard]] const std::vector<std::unique_ptr<QueueValidator>>& validators() const {
    return validators_;
  }

 private:
  sim::Network& net_;
  const crypto::KeyRegistry& keys_;
  const PathCache& paths_;
  ChiConfig config_;
  ConvictionEngine* conviction_ = nullptr;
  std::unique_ptr<ReliableChannel> channel_;  ///< shared; null unless enabled
  std::vector<std::unique_ptr<QueueValidator>> validators_;
  SuspicionHandler handler_;
};

}  // namespace fatih::detection

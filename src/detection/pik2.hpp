// Protocol Pi(k+2) (dissertation §5.2, Fig. 5.3): complete, accurate
// failure detection with precision k+2, cheap enough for practical
// deployment — the protocol the Fatih prototype implements.
//
// Each router monitors the x-path-segments (3 <= x <= k+2) for which it is
// an END router. Per round, the two ends of each segment exchange signed
// summaries through the segment itself; a failed exchange (timeout) or a
// failed TV evaluation makes each end suspect the whole segment. Interior
// routers do nothing, which is what makes the overhead practical
// (Fig. 5.4), and subsampling of monitored packets is supported because
// interior routers never learn the sampling pattern (§5.2.1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "detection/reliable.hpp"
#include "detection/round_driver.hpp"
#include "detection/summary_gen.hpp"
#include "detection/tv.hpp"
#include "detection/types.hpp"
#include "util/flat_map.hpp"

namespace fatih::detection {

/// How summaries travel between the segment ends.
enum class SummaryCompression {
  kFull,       ///< ship every fingerprint (conservation of order capable)
  kReconcile,  ///< ship Appendix-A characteristic-polynomial evaluations:
               ///< O(d) field elements; exact content diff up to the bound
  kBloom,      ///< ship a Bloom digest (§2.4.1): ~1.25 B/packet, the
               ///< difference size is estimated rather than exact
};

struct Pik2Config {
  RoundClock clock;
  std::size_t k = 1;
  util::Duration collect_settle = util::Duration::millis(300);
  /// Timeout mu for the summary exchange (§5.2: "within mu timeout interval").
  util::Duration exchange_timeout = util::Duration::millis(500);
  TvPolicy policy = TvPolicy::kContent;
  TvThresholds thresholds;
  /// Fingerprint sampling: keep fp iff (fp & 0xFF) < sample_keep_per_256.
  std::uint32_t sample_keep_per_256 = 256;
  SummaryCompression compression = SummaryCompression::kFull;
  /// Reconciliation difference bound (kReconcile); a diff beyond it is by
  /// itself a TV failure, so set it above the loss thresholds.
  std::size_t reconcile_bound = 32;
  /// Bloom sizing (kBloom): bits per recorded packet, and hash count.
  std::size_t bloom_bits_per_packet = 10;
  std::size_t bloom_hashes = 4;
  /// When enabled, the end-to-end summary exchange runs over the reliable
  /// ack/retransmit channel (duplicate-suppressed on (reporter, segment,
  /// round, kind)); exchange_timeout must cover the retry schedule. A
  /// send whose retry budget runs out raises "exchange-undeliverable" at
  /// the sender immediately instead of waiting for the timeout.
  ReliableConfig reliable;
  std::int64_t rounds = 0;  ///< 0 = run until simulation ends
};

/// Suspicions are deduplicated per (reporter, segment, round).
class Pik2Engine : public RoundDriver {
 public:
  Pik2Engine(sim::Network& net, const crypto::KeyRegistry& keys, const PathCache& paths,
             const std::vector<util::NodeId>& terminals, Pik2Config config);

  void start();

  /// Protocol-fault injection, as in Pi2Engine.
  using ReportMutator = std::function<bool(SegmentSummary&)>;
  void set_report_mutator(util::NodeId r, ReportMutator m) { mutators_[r] = std::move(m); }

  /// Adversarial entry: signs `summary` with `from`'s own key and sends it
  /// to the far end of its segment — a second, conflicting summary for an
  /// already-exchanged (segment, round) is an equivocation the receiver
  /// can prove with the two envelopes.
  void inject_summary(util::NodeId from, const SegmentSummary& summary);

  /// Segments with r as an end (its Pr).
  [[nodiscard]] std::vector<routing::PathSegment> monitored_by(util::NodeId r) const;

  /// Total control bytes shipped by the exchange so far (overhead bench).
  [[nodiscard]] std::uint64_t exchange_bytes() const { return exchange_bytes_; }

  /// FNV fingerprint of the engine's evolving round state (watermark,
  /// counters, store sizes, exchange bytes, raised suspicions), for
  /// checkpoint digests.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

  /// The reliable transport, or null when `reliable.enabled` is off.
  [[nodiscard]] const ReliableChannel* channel() const { return channel_.get(); }

 private:
  void exchange(std::int64_t round);
  /// Signs `summary` as `from` and sends it to the segment's far end.
  void send_summary(util::NodeId from, util::NodeId peer, SegmentSummary summary);
  void evaluate(std::int64_t round);
  void on_summary(util::NodeId at, const SegmentSummaryPayload& payload);

  Pik2Config config_;
  std::unique_ptr<ReliableChannel> channel_;  ///< null unless reliable.enabled
  std::vector<std::unique_ptr<SummaryGenerator>> generators_;
  std::vector<routing::PathSegment> segments_;
  // Local copy each end keeps of what it sent (for the TV evaluation).
  // Flat sorted-vector stores: std::map iteration order, dense lookups.
  // The own side never ships, so it keeps only what evaluation reads —
  // counters + content fingerprints — not a full SegmentSummary (the key
  // already carries reporter/segment/round, and the compressed forms only
  // exist on the peer side).
  struct OwnRecord {
    validation::CounterSummary counters;
    std::vector<validation::Fingerprint> content;  ///< forwarding order
  };
  util::FlatMap<std::tuple<util::NodeId, routing::PathSegment, std::int64_t>, OwnRecord>
      own_;
  // Peer summaries received, keyed by (receiver, segment, round). First
  // verified summary wins; a later conflicting one is an equivocation.
  util::FlatMap<std::tuple<util::NodeId, routing::PathSegment, std::int64_t>, SegmentSummary>
      peer_;
  // The envelope backing each peer_ entry, under the same key.
  StatementLedger<std::tuple<util::NodeId, routing::PathSegment, std::int64_t>> ledger_;
  util::FlatMap<util::NodeId, ReportMutator> mutators_;
  std::uint64_t exchange_bytes_ = 0;
  TvScratch tv_scratch_;  ///< evaluate_tv's sort buffers, reused every round
};

}  // namespace fatih::detection

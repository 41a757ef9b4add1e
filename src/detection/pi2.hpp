// Protocol Pi2 (dissertation §5.1, Fig. 5.1): strong-complete, accurate
// failure detection with precision 2.
//
// Every router r monitors every (k+2)-path-segment containing r (the set
// Pr). Per round, each router collects info(r, pi, tau) for each pi in Pr,
// signs it, and disseminates it to the routers of pi. Dissemination uses
// robust flooding of signed summaries, which under the good-path condition
// gives all correct routers the same view — the role consensus plays in
// Fig. 5.1 (a router caught signing two different summaries for the same
// (pi, tau) is thereby proven protocol-faulty). Each correct router then
// evaluates TV on every adjacent pair <pi[i], pi[i+1]> and suspects pairs
// that fail, achieving precision 2.
//
// Protocol-faulty behaviours (withheld or corrupted summaries) are
// injectable per router for the adversarial tests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "detection/flood.hpp"
#include "detection/messages.hpp"
#include "detection/reliable.hpp"
#include "detection/round_driver.hpp"
#include "detection/summary_gen.hpp"
#include "detection/tv.hpp"
#include "detection/types.hpp"
#include "util/flat_map.hpp"

namespace fatih::detection {

struct Pi2Config {
  RoundClock clock;
  std::size_t k = 1;  ///< AdjacentFault(k)
  /// Wait after round end before building summaries (in-flight packets).
  util::Duration collect_settle = util::Duration::millis(300);
  /// Wait after dissemination before evaluating TV (flood convergence).
  util::Duration evaluate_settle = util::Duration::millis(500);
  TvPolicy policy = TvPolicy::kContent;
  TvThresholds thresholds;
  /// When enabled, every flood hop copy travels over a per-link
  /// ack/retransmit channel, so summaries survive lossy control links;
  /// evaluate_settle must leave room for the retry schedule.
  ReliableConfig reliable;
  std::int64_t rounds = 0;  ///< 0 = run until simulation ends
};

/// The Pi2 flood's dedup key, which is also the reliable channel's ack
/// `msg_key`: copies with equal keys are flooded once per router. It
/// hashes the summary's scalar fields, its segment, its three list
/// lengths and the envelope tag, not the list contents. The first call on
/// a payload object computes it and keeps it on the object (PayloadCache),
/// so every hop copy of a flood reads it.
[[nodiscard]] std::uint64_t summary_flood_key(const SegmentSummaryPayload& payload);

/// The distributed Pi2 engine: one summary generator + evaluator per
/// router, communicating through the simulated network. Suspicions are
/// deduplicated per (reporter, segment, round).
class Pi2Engine : public RoundDriver {
 public:
  /// `terminals`: the routers that source/sink traffic (used to enumerate
  /// the in-use paths and hence the monitored segments).
  Pi2Engine(sim::Network& net, const crypto::KeyRegistry& keys, const PathCache& paths,
            const std::vector<util::NodeId>& terminals, Pi2Config config);

  /// Starts the round scheduler.
  void start();

  /// Protocol-fault injection: corrupt (return true to keep, after
  /// mutating) or suppress (return false) router r's outgoing summaries.
  using ReportMutator = std::function<bool(SegmentSummary&)>;
  void set_report_mutator(util::NodeId r, ReportMutator m) { mutators_[r] = std::move(m); }

  /// Adversarial entry: signs `summary` with `from`'s own key and floods
  /// it. Attacks use this to equivocate — emit a second, conflicting
  /// summary for a (segment, round) already disseminated. The attacker
  /// cannot sign as anyone else, so the conflicting pair convicts `from`.
  void inject_summary(util::NodeId from, const SegmentSummary& summary);

  /// The segments router r monitors.
  [[nodiscard]] std::vector<routing::PathSegment> monitored_by(util::NodeId r) const;

  /// Transport introspection (overhead accounting in the benches).
  [[nodiscard]] const FloodService& flood() const { return *flood_; }
  /// Null unless config.reliable.enabled.
  [[nodiscard]] const ReliableChannel* channel() const { return channel_.get(); }

  /// FNV fingerprint of the engine's evolving round state (watermark,
  /// counters, store sizes, raised suspicions), for checkpoint digests.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

 private:
  void disseminate(std::int64_t round);
  /// Signs `summary` with `from`'s key and floods it.
  void flood_summary(util::NodeId from, SegmentSummary summary);
  void evaluate(std::int64_t round);
  /// Full admission check for one arriving flood copy: MAC + canonical
  /// decode + signer identity (guard, judged once per payload object) and
  /// the anti-replay round window (every copy). `out` reads the copy's
  /// payload in place.
  ControlVerdict vet(const sim::ControlPayload& payload, std::optional<SegmentSummaryView>& out,
                     std::int64_t* margin = nullptr) const;
  void on_invalid(util::NodeId at, util::NodeId prev, const sim::ControlPayload& payload);
  /// Vets and stores one delivered copy.
  void on_delivery(util::NodeId at, const sim::ControlPayload& payload);
  /// Index of the view's segment in segments_, or segments_.size().
  [[nodiscard]] std::size_t segment_id(const SegmentSummaryView& view) const;

  /// One distinct signed summary: the canonical payload bytes (the
  /// equivocation compare), the counters, the content fingerprints in
  /// forwarding order, and a sorted copy built on first TV use and then
  /// shared by every evaluating router.
  struct Variant {
    validation::CounterSummary counters;
    std::vector<validation::Fingerprint> content;
    std::vector<std::byte> payload;
    std::vector<validation::Fingerprint> sorted;
  };
  /// Which variant one router holds for one statement. A slot whose router
  /// saw two different signed copies of the statement is poisoned (the
  /// reporter equivocated).
  static constexpr std::uint32_t kNoVariant = 0xFFFFFFFFu;
  struct Slot {
    std::uint32_t variant = kNoVariant;
    bool poisoned = false;
  };
  /// One live round's stores. A statement is one reporter's summary of one
  /// segment; member `pos` of segment `sid` reports statement
  /// stmt_base_[sid] + pos. The flood hands every router the same signed
  /// copy, so summary contents are NOT stored per receiver: `variants`
  /// keeps the distinct signed summaries per statement, and `slots`, a
  /// router-major node_count x statements table, records which one each
  /// router holds. Arrivals are O(1) whatever their order. A reporter that
  /// signs for a segment it is not on (only under attack) gets a statement
  /// number past the dense ones and its slots live in `stray_slots`.
  struct RoundStore {
    std::vector<std::vector<Variant>> variants;  // by statement
    std::vector<Slot> slots;
    util::FlatMap<std::pair<std::size_t, util::NodeId>, std::uint32_t> stray_ids;
    util::FlatMap<std::pair<util::NodeId, std::uint32_t>, Slot> stray_slots;
    std::uint64_t received = 0;    ///< (router, statement) slots filled
    std::uint64_t statements = 0;  ///< statements holding a variant
  };

  Pi2Config config_;
  std::unique_ptr<ReliableChannel> channel_;  ///< null unless reliable.enabled
  std::unique_ptr<FloodService> flood_;
  std::vector<std::unique_ptr<SummaryGenerator>> generators_;  // per router id (may be null)
  std::vector<routing::PathSegment> segments_;  // all monitored segments, sorted and unique
  std::vector<std::uint32_t> stmt_base_;        // per segment id; dense statement count last
  util::FlatMap<std::int64_t, RoundStore> rounds_;  // live rounds only
  util::FlatMap<util::NodeId, ReportMutator> mutators_;
  // Statements are (segment id, reporter, round).
  StatementLedger<std::tuple<std::size_t, util::NodeId, std::int64_t>> ledger_;
  TvScratch tv_scratch_;  ///< the variant sort's second buffer and evaluate_tv's scratch
};

}  // namespace fatih::detection

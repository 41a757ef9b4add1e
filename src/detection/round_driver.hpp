// The round bookkeeping Π2, Πk+2 and χ share.
//
// All three run the same round (§5.1 Fig. 5.1, §5.2 Fig. 5.3, §6.2):
// collect traffic information for an interval τ, ship it signed, evaluate
// it, then suspect a segment. RoundDriver owns everything around that
// round: the clock and round limit, the Π2/Πk+2 round chain, the
// anti-replay watermark and ControlGuard, DetectorCounters recorded in
// the trace, the churn predicate, raising suspicions, and the head
// and tail of state_fingerprint(). An engine derives from it and keeps its
// collect/ship and evaluate code, its stores, and its own suspicion dedup
// rule where that differs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "crypto/mac.hpp"
#include "detection/byzantine.hpp"
#include "detection/path_cache.hpp"
#include "detection/types.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "util/flat_map.hpp"

namespace fatih::detection {

class ConvictionEngine;
class ReliableChannel;

/// What a StatementLedger made of an offered envelope: the first (kept),
/// a byte-identical copy of it, or a conflicting one (equivocation).
enum class Statement : std::uint8_t { kFirst, kCopy, kConflict };

/// The equivocation ledger: the first MAC-valid envelope per statement,
/// a tuple whose last element is the round. Only the signer can produce
/// two different envelopes for one statement, so such a pair is a proof.
template <class Key>
class StatementLedger {
 public:
  Statement offer(const Key& key, const crypto::SignedEnvelope& env) {
    // Look up before inserting: every delivered copy is offered, and only
    // the first may pay for copying the envelope.
    const auto it = first_.find(key);
    if (it == first_.end()) {
      first_.emplace(key, env);
      return Statement::kFirst;
    }
    return crypto::equal_bytes(it->second.payload, env.payload) ? Statement::kCopy
                                                                : Statement::kConflict;
  }
  [[nodiscard]] const crypto::SignedEnvelope& kept(const Key& key) const { return first_.at(key); }
  /// True the first time only: each proof is filed once.
  bool file_once(const Key& key) { return filed_.insert(key).second; }
  /// Closed rounds cannot gain conflicts (the watermark rejects their
  /// envelopes), so their statements are dropped.
  void forget_through(std::int64_t round) {
    first_.erase_if([round](const auto& kv) { return round_of(kv.first) <= round; });
    filed_.erase_if([round](const Key& k) { return round_of(k) <= round; });
  }
  [[nodiscard]] std::size_t size() const { return first_.size(); }

  static std::int64_t round_of(const Key& k) { return std::get<std::tuple_size_v<Key> - 1>(k); }

 private:
  util::FlatMap<Key, crypto::SignedEnvelope> first_;
  util::FlatSet<Key> filed_;
};

class RoundDriver {
 public:
  // Scheduled events and taps capture `this`.
  RoundDriver(const RoundDriver&) = delete;
  RoundDriver& operator=(const RoundDriver&) = delete;

  [[nodiscard]] const std::vector<Suspicion>& suspicions() const { return suspicions_; }
  void set_suspicion_handler(SuspicionHandler h) { handler_ = std::move(h); }
  /// Optional conviction layer: when attached, every suspicion is also
  /// filed as a signed accusation and proven equivocations ship both
  /// envelopes as evidence. Engines never convict on their own.
  void set_conviction_engine(ConvictionEngine* c) { conviction_ = c; }
  /// Control-plane verification counters (rejected messages, replays, ...).
  [[nodiscard]] const ByzantineStats& guard_stats() const { return guard_.stats(); }
  /// Uniform engine introspection (same struct across pi2/pik2/chi).
  [[nodiscard]] const DetectorCounters& counters() const { return counters_; }

 protected:
  /// `name` prefixes the log lines.
  RoundDriver(sim::Network& net, const crypto::KeyRegistry& keys, const PathCache& paths,
              RoundClock clock, std::int64_t rounds, obs::TraceSource source, const char* name);
  ~RoundDriver() = default;

  using RoundFn = std::function<void(std::int64_t round)>;
  /// The Π2/Πk+2 round chain: round r opens at its interval end plus
  /// `collect` (the first opening still ahead comes first), calls
  /// `ship(r)`, and calls `evaluate(r)` `settle` later.
  void start_rounds(util::Duration collect, util::Duration settle, RoundFn ship,
                    RoundFn evaluate);
  [[nodiscard]] bool has_round_after(std::int64_t round) const {
    return rounds_ == 0 || round + 1 < rounds_;
  }

  /// ControlGuard::admit_round against the watermark.
  [[nodiscard]] ControlVerdict admit_round(std::int64_t round,
                                           std::int64_t* margin = nullptr) const;

  /// Round accounting, each step counted and traced.
  /// close_round() also raises the anti-replay watermark.
  void open_round(std::int64_t round);
  void invalidate(std::int64_t round, std::uint64_t count);
  void close_round(std::int64_t round);

  /// Churn: a route change anywhere overlaps [start of `round`, now), or
  /// (segment form) `seg` left the live path. Whole-fabric on purpose: a
  /// rerouted flow contaminates summaries on segments whose own ends kept
  /// their path, and running to `now` covers lost control traffic. Such
  /// verdicts would violate a-Accuracy, so they are skipped.
  [[nodiscard]] bool churned(std::int64_t round) const;
  [[nodiscard]] bool churned(std::int64_t round, const routing::PathSegment& seg) const;

  /// Logs, counts, traces and records a suspicion, calls the handler and,
  /// with a conviction layer, files an evidence-free witness vote.
  void raise(util::NodeId reporter, const routing::PathSegment& segment, std::int64_t round,
             const char* cause, double confidence = 1.0);
  /// raise(), once per (reporter, segment, round).
  void suspect(util::NodeId reporter, const routing::PathSegment& segment, std::int64_t round,
               const char* cause);

  /// Offers `env` (statement `key`, seen at `at`) to `ledger`. A conflict
  /// is traced with `detail` and `note`, counted, and filed once per
  /// statement with the conviction layer as a two-envelope proof.
  template <class Key>
  Statement offer(StatementLedger<Key>& ledger, const Key& key,
                  const crypto::SignedEnvelope& env, util::NodeId at, std::uint64_t detail,
                  const char* note) {
    const Statement verdict = ledger.offer(key, env);
    if (verdict == Statement::kConflict) {
      equivocation(at, StatementLedger<Key>::round_of(key), detail, note, ledger.kept(key), env,
                   conviction_ != nullptr && ledger.file_once(key));
    }
    return verdict;
  }

  /// Ships `payload` now: over `channel` when attached, else as a routed
  /// control packet.
  void send_control(ReliableChannel* channel, util::NodeId from, util::NodeId to,
                    std::shared_ptr<const sim::ControlPayload> payload, std::uint32_t bytes);
  /// Hands `p` to `from`'s forwarding (router) or access link (host).
  void originate(util::NodeId from, const sim::Packet& p);

  /// The engines' state_fingerprint(): FNV over the watermark and the
  /// counters, then the engine's own `state` words, then the text of every
  /// raised suspicion.
  [[nodiscard]] std::uint64_t fingerprint(std::span<const std::uint64_t> state) const;

  sim::Network& net_;
  const crypto::KeyRegistry& keys_;
  const PathCache& paths_;
  ControlGuard guard_;

 private:
  void run_round(std::int64_t round);
  void equivocation(util::NodeId at, std::int64_t round, std::uint64_t detail, const char* note,
                    const crypto::SignedEnvelope& first, const crypto::SignedEnvelope& second,
                    bool file);

  RoundClock clock_;
  std::int64_t rounds_;  ///< 0 = run until the simulation ends
  obs::TraceSource source_;
  const char* name_;
  std::int64_t closed_round_ = -1;  ///< highest evaluated round (watermark)
  DetectorCounters counters_;
  util::Duration collect_;
  util::Duration settle_;
  RoundFn ship_;
  RoundFn evaluate_;
  std::vector<Suspicion> suspicions_;
  util::FlatSet<std::tuple<util::NodeId, routing::PathSegment, std::int64_t>> raised_;
  SuspicionHandler handler_;
  ConvictionEngine* conviction_ = nullptr;
};

}  // namespace fatih::detection

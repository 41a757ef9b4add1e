// The traffic-validation predicate TV(pi, info_i, info_j) (dissertation
// §4.2.1), parameterized by conservation policy and tolerance thresholds.
//
// Real networks lose a little traffic benignly, so TV accepts bounded loss
// (the static-threshold compromise of §6.1.1 that Protocol chi later
// replaces); fabrication and modification have no benign cause and default
// to zero tolerance.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "detection/messages.hpp"

namespace fatih::detection {

enum class TvPolicy {
  kFlow,          ///< conservation of flow: packet/byte counters only
  kContent,       ///< conservation of content: fingerprint sets
  kContentOrder,  ///< content + conservation of order (LCS reorder metric)
};

struct TvThresholds {
  std::uint64_t max_lost_packets = 0;  ///< absolute allowance per round
  double max_lost_fraction = 0.0;      ///< relative allowance (of upstream count)
  std::uint64_t max_fabricated = 0;
  std::uint64_t max_reordered = 0;
};

struct TvOutcome {
  bool ok = true;
  std::uint64_t lost = 0;        ///< upstream-only packets
  std::uint64_t fabricated = 0;  ///< downstream-only packets
  std::uint64_t reordered = 0;   ///< |common| - |LCS|
};

/// Zero-copy view of one side of a TV evaluation: `content` is the
/// fingerprints in forwarding order, `packets` the counter term. `sorted`
/// may carry a pre-sorted copy of the same multiset — engines that
/// evaluate one summary many times (Pi2's per-router sweep) sort once and
/// reuse it; leave it empty (any size != content.size()) and evaluate_tv
/// strips the prefix and suffix the two streams share, then sorts the
/// rest into the caller's TvScratch.
struct TvView {
  std::span<const validation::Fingerprint> content;
  std::span<const validation::Fingerprint> sorted = {};
  std::uint64_t packets = 0;
};

/// Buffers evaluate_tv sorts into when a view has no sorted span. An
/// engine keeps one across evaluations, so once the buffers have grown
/// to its largest round the comparison allocates nothing.
struct TvScratch {
  std::vector<validation::Fingerprint> up;
  std::vector<validation::Fingerprint> down;
  std::vector<validation::Fingerprint> tmp;  ///< the radix sort's second buffer
};

/// Evaluates TV between an upstream router's summary and the next
/// downstream router's summary for the same segment and round. The view
/// overload is the core — it reads straight out of the engines' round
/// stores; the SegmentSummary overload wraps and delegates with a scratch
/// of its own.
[[nodiscard]] TvOutcome evaluate_tv(TvPolicy policy, const TvThresholds& thresholds,
                                    const TvView& upstream, const TvView& downstream,
                                    TvScratch& scratch);
[[nodiscard]] TvOutcome evaluate_tv(TvPolicy policy, const TvThresholds& thresholds,
                                    const SegmentSummary& upstream,
                                    const SegmentSummary& downstream);

}  // namespace fatih::detection

// Traffic summaries: the info(r, pi, tau) objects of the specification
// (dissertation §4.2.1), compared under the conservation-of-traffic
// policies (§2.4.1):
//
//   * CounterSummary            — conservation of flow (WATCHERS-style
//                                 counters)
//   * sort_fingerprints         — the one fingerprint sort (LSD radix)
//   * multiset_difference_size  — conservation of content: lost and
//                                 fabricated fingerprints between two
//                                 sorted multisets
//   * reorder_count             — conservation of order: |S| - |LCS| over
//                                 fingerprints in forwarding order
//                                 (§2.2.1, following Piratla et al.)
//
// The fingerprint streams travel in detection::SegmentSummary and TV
// (detection/tv.cpp) runs the two functions straight over them; Protocol
// chi's timestamped stream is detection::ChiRecord (detection/messages.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "validation/fingerprint.hpp"

namespace fatih::validation {

/// Sorts `fps` ascending, the order std::sort gives: an LSD radix sort on
/// 8-bit digits that skips every pass whose digit is the same in all
/// elements, with `tmp` as its second buffer (resized as needed, so a
/// caller that keeps it across calls sorts without allocating once it has
/// grown). Short inputs go to std::sort.
void sort_fingerprints(std::vector<Fingerprint>& fps, std::vector<Fingerprint>& tmp);

/// |A \ B| over two SORTED fingerprint multisets (respecting
/// multiplicity): the count std::set_difference would output. Span-based
/// so the detection engines can run it straight over their round stores.
[[nodiscard]] std::size_t multiset_difference_size(std::span<const Fingerprint> sorted_a,
                                                   std::span<const Fingerprint> sorted_b);

/// Reordering metric between a sent stream S and received stream F
/// (§2.2.1): drop from both streams everything lost/fabricated/modified,
/// then return |S'| - |LCS(S', F')|. 0 means order preserved. Streams are
/// in forwarding order.
[[nodiscard]] std::size_t reorder_count(std::span<const Fingerprint> sent,
                                        std::span<const Fingerprint> received);

/// Conservation-of-flow summary: cheap counters.
struct CounterSummary {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;

  void add(std::uint32_t size_bytes) {
    ++packets;
    bytes += size_bytes;
  }
  bool operator==(const CounterSummary&) const = default;
};

}  // namespace fatih::validation

#include "detection/tv.hpp"

#include <algorithm>

#include "validation/summary.hpp"

namespace fatih::detection {

namespace {

std::uint64_t loss_allowance(const TvThresholds& th, std::uint64_t upstream_count) {
  const auto relative =
      static_cast<std::uint64_t>(th.max_lost_fraction * static_cast<double>(upstream_count));
  return std::max(th.max_lost_packets, relative);
}

bool presorted(const TvView& v) { return v.sorted.size() == v.content.size(); }

/// Narrows `a` and `b` to their middles: drops the longest prefix, then
/// the longest suffix, on which the two streams agree element by element.
/// The dropped elements pair off one for one in both multisets, so the
/// multiset differences of the middles equal those of the whole streams.
void strip_common_ends(std::span<const validation::Fingerprint>& a,
                       std::span<const validation::Fingerprint>& b) {
  const auto front = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  a = {front.first, a.end()};
  b = {front.second, b.end()};
  const auto back = std::mismatch(a.rbegin(), a.rend(), b.rbegin(), b.rend());
  a = {a.begin(), back.first.base()};
  b = {b.begin(), back.second.base()};
}

}  // namespace

TvOutcome evaluate_tv(TvPolicy policy, const TvThresholds& thresholds, const TvView& upstream,
                      const TvView& downstream, TvScratch& scratch) {
  TvOutcome out;
  if (policy == TvPolicy::kFlow) {
    const std::uint64_t up = upstream.packets;
    const std::uint64_t down = downstream.packets;
    out.lost = up > down ? up - down : 0;
    out.fabricated = down > up ? down - up : 0;
  } else {
    std::span<const validation::Fingerprint> up_sorted = upstream.sorted;
    std::span<const validation::Fingerprint> down_sorted = downstream.sorted;
    if (!presorted(upstream) || !presorted(downstream)) {
      auto up_mid = upstream.content;
      auto down_mid = downstream.content;
      strip_common_ends(up_mid, down_mid);
      scratch.up.assign(up_mid.begin(), up_mid.end());
      scratch.down.assign(down_mid.begin(), down_mid.end());
      validation::sort_fingerprints(scratch.up, scratch.tmp);
      validation::sort_fingerprints(scratch.down, scratch.tmp);
      up_sorted = scratch.up;
      down_sorted = scratch.down;
    }
    out.lost = validation::multiset_difference_size(up_sorted, down_sorted);
    out.fabricated = validation::multiset_difference_size(down_sorted, up_sorted);
    if (policy == TvPolicy::kContentOrder) {
      out.reordered = validation::reorder_count(upstream.content, downstream.content);
    }
  }
  out.ok = out.lost <= loss_allowance(thresholds, upstream.packets) &&
           out.fabricated <= thresholds.max_fabricated &&
           (policy != TvPolicy::kContentOrder || out.reordered <= thresholds.max_reordered);
  return out;
}

TvOutcome evaluate_tv(TvPolicy policy, const TvThresholds& thresholds,
                      const SegmentSummary& upstream, const SegmentSummary& downstream) {
  TvScratch scratch;
  return evaluate_tv(policy, thresholds,
                     TvView{upstream.content, {}, upstream.counters.packets},
                     TvView{downstream.content, {}, downstream.counters.packets}, scratch);
}

}  // namespace fatih::detection

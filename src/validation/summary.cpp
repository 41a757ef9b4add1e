#include "validation/summary.hpp"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

namespace fatih::validation {

void sort_fingerprints(std::vector<Fingerprint>& fps, std::vector<Fingerprint>& tmp) {
  constexpr std::size_t kRadixMin = 64;  // below this, introsort is cheaper
  const std::size_t n = fps.size();
  if (n < kRadixMin) {
    std::sort(fps.begin(), fps.end());
    return;
  }
  // One read builds all eight digit histograms.
  std::array<std::array<std::size_t, 256>, 8> counts{};
  for (const Fingerprint fp : fps) {
    for (std::size_t d = 0; d < 8; ++d) ++counts[d][(fp >> (8 * d)) & 0xFF];
  }
  tmp.resize(n);
  Fingerprint* src = fps.data();
  Fingerprint* dst = tmp.data();
  for (std::size_t d = 0; d < 8; ++d) {
    auto& count = counts[d];
    if (count[(src[0] >> (8 * d)) & 0xFF] == n) continue;  // constant digit
    std::size_t offset = 0;
    for (std::size_t& c : count) offset += std::exchange(c, offset);
    for (std::size_t i = 0; i < n; ++i) dst[count[(src[i] >> (8 * d)) & 0xFF]++] = src[i];
    std::swap(src, dst);
  }
  if (src != fps.data()) std::copy(src, src + n, fps.data());
}

std::size_t multiset_difference_size(std::span<const Fingerprint> sorted_a,
                                     std::span<const Fingerprint> sorted_b) {
  std::size_t ia = 0;
  std::size_t ib = 0;
  std::size_t count = 0;
  while (ia < sorted_a.size() && ib < sorted_b.size()) {
    if (sorted_a[ia] < sorted_b[ib]) {
      ++count;
      ++ia;
    } else if (sorted_b[ib] < sorted_a[ia]) {
      ++ib;
    } else {
      ++ia;
      ++ib;
    }
  }
  return count + (sorted_a.size() - ia);
}

std::size_t reorder_count(std::span<const Fingerprint> sent,
                          std::span<const Fingerprint> received) {
  // Restrict both streams to their common multiset.
  // Positions of each fingerprint in the received stream, consumed FIFO so
  // duplicate fingerprints pair up in order. One sorted (fp, position)
  // array with contiguous per-fingerprint groups replaces the node-based
  // fp -> positions map; the stable sort keeps positions ascending within
  // a group, exactly as the map's push_back order did.
  std::vector<std::pair<Fingerprint, std::size_t>> pos;
  pos.reserve(received.size());
  for (std::size_t i = 0; i < received.size(); ++i) pos.emplace_back(received[i], i);
  std::stable_sort(pos.begin(), pos.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  struct Group {
    Fingerprint fp;
    std::size_t begin, end;  ///< half-open range into `pos`
    std::size_t used = 0;    ///< sent copies already paired (the FIFO cursor)
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < pos.size();) {
    std::size_t j = i;
    while (j < pos.size() && pos[j].first == pos[i].first) ++j;
    groups.push_back({pos[i].first, i, j, 0});
    i = j;
  }
  // Map the sent stream to received positions and feed them straight into
  // the patience piles of a longest strictly-increasing subsequence, which
  // is the LCS length (Hunt-Szymanski). Each matched group's positions go
  // in DECREASING order so the subsequence uses at most one of them.
  std::vector<std::size_t> tails;
  std::size_t common = 0;
  for (Fingerprint fp : sent) {
    auto it = std::lower_bound(groups.begin(), groups.end(), fp,
                               [](const Group& g, Fingerprint f) { return g.fp < f; });
    if (it == groups.end() || it->fp != fp) continue;
    if (it->used >= it->end - it->begin) continue;  // more sent copies than received
    ++it->used;
    ++common;
    for (std::size_t k = it->end; k-- > it->begin;) {
      const std::size_t at = pos[k].second;
      auto pile = std::lower_bound(tails.begin(), tails.end(), at);
      if (pile == tails.end()) {
        tails.push_back(at);
      } else {
        *pile = at;
      }
    }
  }
  return common - tails.size();
}

}  // namespace fatih::validation

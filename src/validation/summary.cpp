#include "validation/summary.hpp"

#include <algorithm>
#include <vector>

namespace fatih::validation {

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
  // Map the sent stream to received positions (Hunt-Szymanski: duplicate
  // positions listed in DECREASING order so the LIS uses each at most once).
  std::vector<std::vector<std::size_t>> per_sent;
  std::size_t common = 0;
  for (Fingerprint fp : sent) {
    auto it = std::lower_bound(groups.begin(), groups.end(), fp,
                               [](const Group& g, Fingerprint f) { return g.fp < f; });
    if (it == groups.end() || it->fp != fp) continue;
    if (it->used >= it->end - it->begin) continue;  // more sent copies than received
    ++it->used;
    ++common;
    // All candidate positions, decreasing.
    std::vector<std::size_t> cands;
    cands.reserve(it->end - it->begin);
    for (std::size_t k = it->end; k-- > it->begin;) cands.push_back(pos[k].second);
    per_sent.push_back(std::move(cands));
  }
  // Longest strictly-increasing subsequence over the concatenated
  // candidate lists = LCS length.
  std::vector<std::size_t> tails;  // patience piles
  for (const auto& cands : per_sent) {
    for (std::size_t pos : cands) {
      auto it = std::lower_bound(tails.begin(), tails.end(), pos);
      if (it == tails.end()) {
        tails.push_back(pos);
      } else {
        *it = pos;
      }
    }
  }
  return common - tails.size();
}

}  // namespace fatih::validation

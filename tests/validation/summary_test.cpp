#include "validation/summary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "util/rng.hpp"

namespace fatih::validation {
namespace {

// The FingerprintSummary (content) and OrderedSummary (order) suites name
// the conservation policies whose comparisons the span functions compute.
using Stream = std::vector<Fingerprint>;

TEST(CounterSummary, Accumulates) {
  CounterSummary c;
  c.add(100);
  c.add(250);
  EXPECT_EQ(c.packets, 2U);
  EXPECT_EQ(c.bytes, 350U);
}

TEST(FingerprintSummary, DifferenceBasic) {
  const Stream a{1, 2, 3, 4};
  const Stream b{2, 4, 5};
  EXPECT_EQ(multiset_difference_size(a, b), 2U);  // {1, 3}
  EXPECT_EQ(multiset_difference_size(b, a), 1U);  // {5}
}

TEST(FingerprintSummary, DifferenceRespectsMultiplicity) {
  const Stream a{7, 7, 7};
  const Stream b{7};
  EXPECT_EQ(multiset_difference_size(a, b), 2U);
}

TEST(FingerprintSummary, SymmetricDifferenceSize) {
  const Stream a{1, 2, 3};
  const Stream b{3, 4};
  EXPECT_EQ(multiset_difference_size(a, b) + multiset_difference_size(b, a), 3U);
  EXPECT_EQ(multiset_difference_size(a, a), 0U);
  EXPECT_EQ(multiset_difference_size(a, {}) + multiset_difference_size({}, a), 3U);
}

TEST(OrderedSummary, NoReorder) {
  const Stream sent{1, 2, 3, 4, 5};
  EXPECT_EQ(reorder_count(sent, sent), 0U);
}

TEST(OrderedSummary, SingleDisplacement) {
  const Stream sent{1, 2, 3, 4, 5};
  const Stream recv{2, 3, 4, 1, 5};  // 1 moved back
  EXPECT_EQ(reorder_count(sent, recv), 1U);
}

TEST(OrderedSummary, FullReversal) {
  const Stream sent{1, 2, 3, 4, 5};
  const Stream recv{5, 4, 3, 2, 1};
  EXPECT_EQ(reorder_count(sent, recv), 4U);
}

TEST(OrderedSummary, LossesExcludedFromMetric) {
  // §2.2.1: remove lost/fabricated packets from both streams first.
  const Stream sent{1, 2, 3, 4, 5};
  const Stream recv{1, 3, 5};  // 2 and 4 lost, order intact
  EXPECT_EQ(reorder_count(sent, recv), 0U);
}

TEST(OrderedSummary, FabricationsExcludedFromMetric) {
  const Stream sent{1, 2, 3};
  const Stream recv{1, 9, 2, 3};  // 9 fabricated
  EXPECT_EQ(reorder_count(sent, recv), 0U);
}

TEST(OrderedSummary, SwapAdjacent) {
  const Stream sent{1, 2, 3, 4};
  const Stream recv{1, 3, 2, 4};
  EXPECT_EQ(reorder_count(sent, recv), 1U);
}

TEST(OrderedSummary, EmptyStreams) {
  EXPECT_EQ(reorder_count({}, {}), 0U);
  EXPECT_EQ(reorder_count(Stream{1, 2}, {}), 0U);
}

TEST(SortFingerprints, MatchesStdSort) {
  // Sizes around the introsort cut-off and large ones; keys that are
  // random, share their high bytes (so radix passes are skipped), repeat
  // heavily, are all equal, arrive sorted either way, or are all equal
  // but one (a digit that is constant in all elements but one must not
  // be skipped).
  util::Rng rng(41);
  Stream tmp;  // reused across every case, as the engines reuse theirs
  for (const std::size_t n : {0U, 1U, 2U, 63U, 64U, 65U, 1000U, 5000U}) {
    for (int kind = 0; kind < 7; ++kind) {
      Stream keys(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t r = rng.next_u64();
        switch (kind) {
          case 0: keys[i] = r; break;
          case 1: keys[i] = 0xABCDEF1234000000ULL | (r & 0xFF00FFULL); break;
          case 2: keys[i] = r % 7; break;
          case 3: keys[i] = 0x5555; break;
          case 4: keys[i] = i * 0x0101; break;
          case 5: keys[i] = (n - i) << 40; break;
          default: keys[i] = i == n / 2 ? 0x5555 | (1ULL << 40) : 0x5555; break;
        }
      }
      Stream expected = keys;
      std::sort(expected.begin(), expected.end());
      sort_fingerprints(keys, tmp);
      EXPECT_EQ(keys, expected) << "n=" << n << " kind=" << kind;
    }
  }
}

/// |S'| - LCS(S', received) by dynamic programming, where S' keeps each
/// fingerprint's first min(sent, received) copies of the sent stream: the
/// §2.2.1 metric, computed the slow way.
std::size_t reorder_count_reference(const Stream& sent, const Stream& received) {
  std::map<Fingerprint, std::size_t> left;
  for (const Fingerprint fp : received) ++left[fp];
  Stream kept;
  for (const Fingerprint fp : sent) {
    auto it = left.find(fp);
    if (it == left.end() || it->second == 0) continue;
    --it->second;
    kept.push_back(fp);
  }
  std::vector<std::vector<std::size_t>> lcs(kept.size() + 1,
                                            std::vector<std::size_t>(received.size() + 1, 0));
  for (std::size_t i = 1; i <= kept.size(); ++i) {
    for (std::size_t j = 1; j <= received.size(); ++j) {
      lcs[i][j] = kept[i - 1] == received[j - 1] ? lcs[i - 1][j - 1] + 1
                                                 : std::max(lcs[i - 1][j], lcs[i][j - 1]);
    }
  }
  return kept.size() - lcs[kept.size()][received.size()];
}

TEST(OrderedSummary, MatchesLcsReference) {
  // Small streams over a few distinct fingerprints, so duplicates are the
  // norm; the received copy drops, duplicates, fabricates and reorders.
  util::Rng rng(43);
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 40));
    const auto alphabet = static_cast<std::uint64_t>(rng.uniform_int(1, 12));
    Stream sent(n);
    for (auto& fp : sent) fp = rng.next_u64() % alphabet;
    Stream received;
    for (const Fingerprint fp : sent) {
      if (rng.bernoulli(0.15)) continue;                             // lost
      received.push_back(fp);
      if (rng.bernoulli(0.1)) received.push_back(fp);                // duplicated
      if (rng.bernoulli(0.1)) received.push_back(100 + fp);         // fabricated
    }
    for (std::size_t i = 0; i + 1 < received.size(); ++i) {
      if (rng.bernoulli(0.2)) std::swap(received[i], received[i + 1]);  // reordered
    }
    EXPECT_EQ(reorder_count(sent, received), reorder_count_reference(sent, received))
        << "trial " << trial;
    EXPECT_EQ(reorder_count(received, sent), reorder_count_reference(received, sent))
        << "trial " << trial << " reversed";
  }
}

}  // namespace
}  // namespace fatih::validation

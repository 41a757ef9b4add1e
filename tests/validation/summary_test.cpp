#include "validation/summary.hpp"

#include <gtest/gtest.h>

#include <vector>

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

}  // namespace
}  // namespace fatih::validation

#include "detection/tv.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "validation/summary.hpp"

namespace fatih::detection {
namespace {

SegmentSummary summary_of(std::initializer_list<validation::Fingerprint> fps) {
  SegmentSummary s;
  for (auto fp : fps) {
    s.content.push_back(fp);
    s.counters.add(1000);
  }
  return s;
}

TEST(Tv, CleanTrafficPasses) {
  const auto up = summary_of({1, 2, 3});
  const auto outcome = evaluate_tv(TvPolicy::kContent, {}, up, up);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.lost, 0U);
  EXPECT_EQ(outcome.fabricated, 0U);
}

TEST(Tv, LossDetectedUnderContent) {
  const auto up = summary_of({1, 2, 3, 4});
  const auto down = summary_of({1, 3});
  const auto outcome = evaluate_tv(TvPolicy::kContent, {}, up, down);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.lost, 2U);
}

TEST(Tv, ModificationShowsAsLossPlusFabrication) {
  const auto up = summary_of({1, 2, 3});
  const auto down = summary_of({1, 2, 99});  // 3 modified into 99
  const auto outcome = evaluate_tv(TvPolicy::kContent, {}, up, down);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.lost, 1U);
  EXPECT_EQ(outcome.fabricated, 1U);
}

TEST(Tv, FlowPolicyMissesModification) {
  // Conservation of flow only counts volume — the WATCHERS weakness.
  const auto up = summary_of({1, 2, 3});
  const auto down = summary_of({1, 2, 99});
  const auto outcome = evaluate_tv(TvPolicy::kFlow, {}, up, down);
  EXPECT_TRUE(outcome.ok);
}

TEST(Tv, FlowPolicyCatchesLoss) {
  const auto up = summary_of({1, 2, 3});
  const auto down = summary_of({1});
  const auto outcome = evaluate_tv(TvPolicy::kFlow, {}, up, down);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.lost, 2U);
}

TEST(Tv, AbsoluteLossAllowance) {
  TvThresholds th;
  th.max_lost_packets = 2;
  const auto up = summary_of({1, 2, 3, 4});
  EXPECT_TRUE(evaluate_tv(TvPolicy::kContent, th, up, summary_of({1, 2})).ok);
  EXPECT_FALSE(evaluate_tv(TvPolicy::kContent, th, up, summary_of({1})).ok);
}

TEST(Tv, FractionalLossAllowance) {
  TvThresholds th;
  th.max_lost_fraction = 0.5;
  const auto up = summary_of({1, 2, 3, 4});
  EXPECT_TRUE(evaluate_tv(TvPolicy::kContent, th, up, summary_of({1, 2})).ok);
  EXPECT_FALSE(evaluate_tv(TvPolicy::kContent, th, up, summary_of({1})).ok);
}

TEST(Tv, FabricationNeverTolerated) {
  TvThresholds th;
  th.max_lost_packets = 100;
  const auto up = summary_of({1});
  const auto down = summary_of({1, 2});
  EXPECT_FALSE(evaluate_tv(TvPolicy::kContent, th, up, down).ok);
}

TEST(Tv, ReorderDetectedUnderOrderPolicy) {
  SegmentSummary up = summary_of({1, 2, 3, 4});
  SegmentSummary down;
  for (auto fp : {4U, 1U, 2U, 3U}) {
    down.content.push_back(fp);
    down.counters.add(1000);
  }
  const auto plain = evaluate_tv(TvPolicy::kContent, {}, up, down);
  EXPECT_TRUE(plain.ok);  // content alone is conserved
  const auto ordered = evaluate_tv(TvPolicy::kContentOrder, {}, up, down);
  EXPECT_FALSE(ordered.ok);
  EXPECT_EQ(ordered.reordered, 1U);
}

TEST(Tv, ReorderAllowance) {
  TvThresholds th;
  th.max_reordered = 1;
  SegmentSummary up = summary_of({1, 2, 3, 4});
  SegmentSummary down;
  for (auto fp : {4U, 1U, 2U, 3U}) down.content.push_back(fp);
  down.counters = up.counters;
  EXPECT_TRUE(evaluate_tv(TvPolicy::kContentOrder, th, up, down).ok);
}

TEST(Tv, EmptySummariesPass) {
  const SegmentSummary empty;
  EXPECT_TRUE(evaluate_tv(TvPolicy::kContentOrder, {}, empty, empty).ok);
}

using Stream = std::vector<validation::Fingerprint>;

/// The downstream copy of `up` under one of six shapes: identical, drops,
/// duplicates, fabricated entries, adjacent swaps, or a full shuffle.
Stream shaped(const Stream& up, int shape, util::Rng& rng) {
  Stream down;
  for (const validation::Fingerprint fp : up) {
    if (shape == 1 && rng.bernoulli(0.02)) continue;
    down.push_back(fp);
    if (shape == 2 && rng.bernoulli(0.02)) down.push_back(fp);
    if (shape == 3 && rng.bernoulli(0.02)) down.push_back(rng.next_u64());
  }
  if (shape == 4) {
    for (std::size_t i = 0; i + 1 < down.size(); ++i) {
      if (rng.bernoulli(0.05)) std::swap(down[i], down[i + 1]);
    }
  } else if (shape == 5) {
    for (std::size_t i = down.size(); i > 1; --i) {
      std::swap(down[i - 1], down[rng.next_u64() % i]);
    }
  }
  return down;
}

TEST(Tv, ViewOverloadMatchesSortedReference) {
  // The view overload strips the common prefix and suffix and radix-sorts
  // the middles into the scratch; the reference sorts whole copies with
  // std::sort. Keys are random, share their high bytes (radix passes get
  // skipped), or repeat.
  util::Rng rng(47);
  TvScratch scratch;  // reused across every case, as the engines reuse theirs
  TvThresholds th;
  th.max_lost_packets = 2;
  th.max_fabricated = 1;
  int failing = 0;
  for (const std::size_t n : {0U, 1U, 63U, 64U, 65U, 2000U, 8000U}) {
    for (int kind = 0; kind < 3; ++kind) {
      Stream up(n);
      for (auto& fp : up) {
        const std::uint64_t r = rng.next_u64();
        fp = kind == 0 ? r : kind == 1 ? 0x0123456789000000ULL | (r & 0xFFFFFF) : r % 97;
      }
      for (int shape = 0; shape < 6; ++shape) {
        const Stream down = shaped(up, shape, rng);
        Stream up_sorted = up;
        Stream down_sorted = down;
        std::sort(up_sorted.begin(), up_sorted.end());
        std::sort(down_sorted.begin(), down_sorted.end());
        const std::uint64_t lost = validation::multiset_difference_size(up_sorted, down_sorted);
        const std::uint64_t fabricated =
            validation::multiset_difference_size(down_sorted, up_sorted);
        const auto outcome = evaluate_tv(TvPolicy::kContent, th, TvView{up, {}, up.size()},
                                         TvView{down, {}, down.size()}, scratch);
        const std::string at = "n=" + std::to_string(n) + " kind=" + std::to_string(kind) +
                               " shape=" + std::to_string(shape);
        EXPECT_EQ(outcome.lost, lost) << at;
        EXPECT_EQ(outcome.fabricated, fabricated) << at;
        EXPECT_EQ(outcome.ok, lost <= th.max_lost_packets && fabricated <= th.max_fabricated)
            << at;
        failing += outcome.ok ? 0 : 1;
      }
    }
  }
  EXPECT_GT(failing, 10);  // the shapes do cross the thresholds
}

}  // namespace
}  // namespace fatih::detection

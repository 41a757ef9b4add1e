// Fuzz-style robustness sweeps over the control-message decoders: every
// truncation prefix, every single-byte saturation (0xFF / 0x00), and
// trailing garbage. A malicious router controls these bytes end to end, so
// from_bytes must never crash, never allocate beyond what the input
// admits, and reject strictly — without a fuzzer engine, an exhaustive
// deterministic sweep over the interesting positions covers the same
// ground reproducibly.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "detection/messages.hpp"

namespace fatih::detection {
namespace {

SegmentSummary sample_summary() {
  SegmentSummary s;
  s.reporter = 3;
  s.segment = routing::PathSegment{1, 3, 5};
  s.round = 42;
  s.counters.packets = 7;
  s.counters.bytes = 7000;
  s.content = {0x1111, 0x2222, 0x3333, 0x4444};
  return s;
}

SegmentSummary sample_recon_summary() {
  SegmentSummary s = sample_summary();
  s.content.clear();
  s.recon_evals = {9, 8, 7};
  s.bloom_words = {0xAA55AA55, 0x12345678};
  s.bloom_hashes = 3;
  return s;
}

ChiReport sample_report() {
  ChiReport r;
  r.reporter = 0;
  r.queue_owner = 1;
  r.queue_peer = 2;
  r.round = 5;
  r.part = 1;
  r.parts = 3;
  for (std::uint32_t i = 0; i < 6; ++i) {
    ChiRecord rec;
    rec.fp = 0xBEEF00ULL + i;
    rec.size_bytes = 512 + i;
    rec.flow_id = i % 2;
    rec.control = (i == 4);
    rec.ts = util::SimTime::from_seconds(5.0) + util::Duration::millis(i);
    r.records.push_back(rec);
  }
  return r;
}

Accusation sample_accusation() {
  Accusation a;
  a.accuser = 2;
  a.detector = 4;
  a.accused = routing::PathSegment{1, 3};
  a.round = 9;
  a.cause = "equivocation";
  for (int i = 0; i < 2; ++i) {
    crypto::SignedEnvelope env;
    env.signer = 1;
    env.payload = {std::byte{0x01}, std::byte{static_cast<unsigned char>(i)}, std::byte{0x03}};
    env.tag = 0xC0FFEE00u + static_cast<std::uint64_t>(i);
    a.evidence.push_back(std::move(env));
  }
  return a;
}

/// The in-place walker and from_bytes must agree on every input: accept
/// exactly the same bytes, and read the same reporter, round and segment.
void expect_walker_agrees(std::span<const std::byte> in) {
  const auto full = SegmentSummary::from_bytes(in);
  const auto view = SegmentSummaryView::parse(in);
  ASSERT_EQ(view.has_value(), full.has_value()) << "input of " << in.size() << " bytes";
  if (!full.has_value()) return;
  EXPECT_EQ(view->reporter, full->reporter);
  EXPECT_EQ(view->round, full->round);
  std::vector<util::NodeId> nodes;
  for (std::size_t i = 0; i < view->segment_length(); ++i) nodes.push_back(view->segment_node(i));
  EXPECT_EQ(nodes, full->segment.nodes());
}

void no_extra_check(std::span<const std::byte> /*in*/) {}

/// Drives the three sweeps over one codec, calling `also` on every input
/// as well. Decode is allowed to succeed on a mutated input (the flipped
/// byte may land in a counter value); the invariant is no crash, no
/// unbounded allocation, and — when it does succeed — a self-consistent
/// value that re-encodes and re-decodes.
template <typename T, typename Decode>
void sweep(const T& value, Decode decode,
           void (*also)(std::span<const std::byte>) = no_extra_check) {
  const std::vector<std::byte> wire = value.to_bytes();
  ASSERT_FALSE(wire.empty());

  // Canonical round-trip first: strict decode of the genuine bytes.
  {
    const auto out = decode(std::span<const std::byte>{wire});
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->to_bytes(), wire);
    also(wire);
  }

  // 1. Every truncation prefix, including empty.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    also(std::span<const std::byte>{wire.data(), len});
    const auto out = decode(std::span<const std::byte>{wire.data(), len});
    if (out.has_value()) {
      // A shorter valid encoding is possible only if it round-trips.
      EXPECT_EQ(out->to_bytes().size(), len) << "loose decode at prefix " << len;
    }
  }

  // 2. Every byte saturated high and low — hits every length/count field,
  //    exercising the decoder caps against claimed-huge vectors.
  for (const std::byte poison : {std::byte{0xFF}, std::byte{0x00}}) {
    std::vector<std::byte> mutated = wire;
    for (std::size_t pos = 0; pos < mutated.size(); ++pos) {
      const std::byte saved = mutated[pos];
      mutated[pos] = poison;
      also(mutated);
      const auto out = decode(std::span<const std::byte>{mutated});
      if (out.has_value()) {
        const std::vector<std::byte> re = out->to_bytes();
        EXPECT_EQ(decode(std::span<const std::byte>{re}).has_value(), true)
            << "decoded value does not re-decode, pos " << pos;
      }
      mutated[pos] = saved;
    }
  }

  // 3. Trailing garbage: strict decoders reject oversized payloads.
  for (std::size_t extra : {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
    std::vector<std::byte> padded = wire;
    padded.insert(padded.end(), extra, std::byte{0xA5});
    also(padded);
    EXPECT_FALSE(decode(std::span<const std::byte>{padded}).has_value())
        << "trailing " << extra << " bytes accepted";
  }
}

TEST(MessageFuzz, SegmentSummarySurvivesMutationSweep) {
  sweep(
      sample_summary(),
      [](std::span<const std::byte> in) { return SegmentSummary::from_bytes(in); },
      expect_walker_agrees);
}

TEST(MessageFuzz, ReconciledSummarySurvivesMutationSweep) {
  sweep(
      sample_recon_summary(),
      [](std::span<const std::byte> in) { return SegmentSummary::from_bytes(in); },
      expect_walker_agrees);
}

TEST(MessageFuzz, ChiReportSurvivesMutationSweep) {
  sweep(sample_report(), [](std::span<const std::byte> in) {
    return ChiReport::from_bytes(in);
  });
}

TEST(MessageFuzz, AccusationSurvivesMutationSweep) {
  sweep(sample_accusation(), [](std::span<const std::byte> in) {
    return Accusation::from_bytes(in);
  });
}

TEST(MessageFuzz, ClaimedHugeCountsNeverAllocate) {
  // Hand-build a summary whose element-count field claims 2^20 entries
  // against a few bytes of body; the decoder must bail on the length
  // check before any reserve. The count field position is located by
  // diffing encodings with 0 and 1 content elements.
  SegmentSummary none = sample_summary();
  none.content.clear();
  SegmentSummary one = none;
  one.content.push_back(0x77);
  const auto a = none.to_bytes();
  const auto b = one.to_bytes();
  std::size_t diverge = 0;
  while (diverge < a.size() && diverge < b.size() && a[diverge] == b[diverge]) ++diverge;
  ASSERT_LT(diverge, a.size());

  std::vector<std::byte> forged = a;
  for (std::size_t i = 0; i < 8 && diverge + i < forged.size(); ++i) {
    forged[diverge + i] = std::byte{0xFF};
  }
  EXPECT_FALSE(SegmentSummary::from_bytes(forged).has_value());
  EXPECT_FALSE(SegmentSummaryView::parse(forged).has_value());

  // The segment length is the first count on the wire, right after the
  // 4-byte reporter.
  std::vector<std::byte> long_segment = a;
  for (std::size_t i = 4; i < 8; ++i) long_segment[i] = std::byte{0xFF};
  EXPECT_FALSE(SegmentSummary::from_bytes(long_segment).has_value());
  EXPECT_FALSE(SegmentSummaryView::parse(long_segment).has_value());
}

}  // namespace
}  // namespace fatih::detection

// §7.1 "Computing Fingerprints": micro-benchmarks of the per-packet work
// the protocols add to the forwarding path — keyed fingerprinting (the
// UHASH-class cost the dissertation discusses), MAC computation, Bloom
// digest insertion, and characteristic-polynomial evaluation per packet —
// plus the per-round TV comparison of two fingerprint streams and the
// receive-side work of one Π2 flood hop copy.
#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crypto/mac.hpp"
#include "crypto/siphash.hpp"
#include "detection/byzantine.hpp"
#include "detection/pi2.hpp"
#include "detection/tv.hpp"
#include "util/rng.hpp"
#include "validation/bloom.hpp"
#include "validation/fingerprint.hpp"
#include "validation/reconcile.hpp"

namespace {

using namespace fatih;

sim::Packet sample_packet(std::uint64_t i) {
  sim::Packet p;
  p.hdr.src = 1;
  p.hdr.dst = 9;
  p.hdr.flow_id = static_cast<std::uint32_t>(i & 0xFF);
  p.hdr.seq = static_cast<std::uint32_t>(i);
  p.hdr.proto = sim::Protocol::kTcp;
  p.size_bytes = 1000;
  p.payload_tag = i * 0x9E3779B97F4A7C15ULL;
  return p;
}

void BM_PacketFingerprint(benchmark::State& state) {
  constexpr crypto::SipKey key{11, 22};
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(validation::packet_fingerprint(key, sample_packet(i++)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketFingerprint);

void BM_PacketFingerprintBatch(benchmark::State& state) {
  // The SIMD-batched admission path: Arg selects the dispatch level
  // (0=scalar, 1=SSE2, 2=AVX2, 3=AVX-512); levels the CPU or build cannot
  // reach are skipped. Digests are identical across levels by construction
  // (siphash_batch_test pins that), so this table is pure throughput.
  constexpr crypto::SipKey key{11, 22};
  const auto cap = static_cast<crypto::SimdLevel>(state.range(0));
  const auto old_cap = crypto::set_simd_level_cap(cap);
  if (crypto::simd_level() != cap) {
    crypto::set_simd_level_cap(old_cap);
    state.SkipWithError("dispatch level unavailable on this CPU/build");
    return;
  }
  const validation::FingerprintHasher hasher(key);
  constexpr std::size_t kBlock = 1024;
  std::vector<validation::PacketInvariant> views;
  views.reserve(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    views.push_back(validation::PacketInvariant::from_packet(sample_packet(i)));
  }
  std::vector<validation::Fingerprint> digests(kBlock);
  for (auto _ : state) {
    hasher.hash_batch(views.data(), kBlock, digests.data());
    benchmark::DoNotOptimize(digests.data());
  }
  crypto::set_simd_level_cap(old_cap);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBlock));
}
BENCHMARK(BM_PacketFingerprintBatch)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_SipHashPayload(benchmark::State& state) {
  // Hashing a full payload of the given size (software fallback if header
  // fields alone are not enough).
  constexpr crypto::SipKey key{11, 22};
  std::vector<std::byte> payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::siphash24(key, payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SipHashPayload)->Arg(64)->Arg(256)->Arg(1000)->Arg(1500);

void BM_MacOverSummary(benchmark::State& state) {
  constexpr crypto::SipKey key{31, 32};
  std::vector<std::byte> summary(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::compute_mac(key, summary));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MacOverSummary)->Arg(1024)->Arg(16384);

void BM_FloodHop(benchmark::State& state) {
  // What a Π2 flood hop copy costs its receiver before dedup: the guard's
  // MAC check, strict parse and signer check, then the flood key.
  // range(0) fingerprints: 0, 128 and 512 span the payloads the flood
  // carries (about 100 B, 1.1 KB and 4.2 KB). range(1) = 1 checks and
  // keys a payload object the guard has already judged and keyed, as every
  // copy of a flood after its first is.
  sim::Network net{1};
  for (util::NodeId r = 0; r < 4; ++r) net.add_router(util::node_name(r));
  const crypto::KeyRegistry keys{7};
  const detection::ControlGuard guard(net, keys, obs::TraceSource::kPi2);
  detection::SegmentSummary summary;
  summary.reporter = 1;
  summary.segment = routing::PathSegment{0, 1, 2};
  summary.round = 5;
  util::Rng rng(3);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    summary.content.push_back(rng.next_u64());
    summary.counters.add(1000);
  }
  detection::SegmentSummaryPayload copy;
  copy.kind_tag = detection::kKindSummaryFlood;
  copy.envelope = crypto::sign(keys, summary.reporter, summary.to_bytes());
  copy.summary = std::move(summary);
  const bool duplicate = state.range(1) != 0;
  if (duplicate) {
    std::optional<detection::SegmentSummaryView> view;
    benchmark::DoNotOptimize(guard.check_summary(copy, view));
  }
  for (auto _ : state) {
    // Assigning the payload cache resets it: every copy is a first check.
    if (!duplicate) copy.cache = detection::PayloadCache{};
    std::optional<detection::SegmentSummaryView> view;
    benchmark::DoNotOptimize(guard.check_summary(copy, view));
    benchmark::DoNotOptimize(detection::summary_flood_key(copy));
  }
  const auto bytes = static_cast<std::int64_t>(copy.envelope.payload.size());
  state.SetLabel(std::to_string(bytes) + (duplicate ? " B, duplicate" : " B"));
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_FloodHop)->Args({0, 0})->Args({128, 0})->Args({512, 0})->Args({128, 1});

void BM_BloomInsert(benchmark::State& state) {
  validation::BloomFilter filter(1 << 16, 4);
  std::uint64_t i = 0;
  for (auto _ : state) {
    filter.insert(i++ * 0x9E3779B97F4A7C15ULL);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BloomInsert);

void BM_CharPolyPerPacket(benchmark::State& state) {
  // Incremental characteristic-polynomial maintenance: one field
  // multiplication per evaluation point per packet.
  const auto points = validation::evaluation_points(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint64_t> acc(points.size(), 1);
  std::uint64_t i = 1;
  for (auto _ : state) {
    const std::uint64_t elem = validation::to_field(i++ * 0x9E3779B97F4A7C15ULL);
    for (std::size_t j = 0; j < points.size(); ++j) {
      acc[j] = validation::gf::mul(acc[j], validation::gf::sub(points[j], elem));
    }
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CharPolyPerPacket)->Arg(8)->Arg(32)->Arg(128);

void BM_TvContent(benchmark::State& state) {
  // One conservation-of-content TV evaluation, as Pi(k+2) runs it per
  // segment end and round: two unsorted fingerprint streams of range(0)
  // packets. range(1) shapes the downstream copy: 0 = identical, 1 = one
  // packet dropped mid-stream, 2 = the same packets in shuffled order.
  // Iterations cycle through kPairs distinct stream pairs: a comparison
  // sort timed on one repeated input lets the branch predictor learn its
  // branches and runs several times faster than on fresh data.
  constexpr std::size_t kPairs = 32;
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(71);
  std::vector<std::vector<validation::Fingerprint>> ups(kPairs);
  std::vector<std::vector<validation::Fingerprint>> downs(kPairs);
  for (std::size_t k = 0; k < kPairs; ++k) {
    ups[k].resize(n);
    for (auto& fp : ups[k]) fp = rng.next_u64();
    downs[k] = ups[k];
    if (state.range(1) == 1) {
      downs[k].erase(downs[k].begin() + static_cast<std::ptrdiff_t>(n / 2));
    } else if (state.range(1) == 2) {
      for (std::size_t i = n; i > 1; --i) {
        std::swap(downs[k][i - 1], downs[k][rng.next_u64() % i]);
      }
    }
  }
  detection::TvScratch scratch;  // the engine's reused buffers
  std::size_t k = 0;
  for (auto _ : state) {
    const detection::TvView up{ups[k], {}, ups[k].size()};
    const detection::TvView down{downs[k], {}, downs[k].size()};
    benchmark::DoNotOptimize(
        detection::evaluate_tv(detection::TvPolicy::kContent, {}, up, down, scratch));
    k = (k + 1) % kPairs;
  }
  state.SetLabel(state.range(1) == 0 ? "identical" : state.range(1) == 1 ? "drop" : "shuffled");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_TvContent)->ArgsProduct({{256, 2048, 8192}, {0, 1, 2}});

}  // namespace

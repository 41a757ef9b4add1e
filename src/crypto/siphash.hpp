// SipHash-2-4: keyed 64-bit pseudo-random function (Aumasson & Bernstein),
// implemented from scratch.
//
// The detection protocols fingerprint every forwarded packet with a keyed
// one-way function (dissertation §2.1.5 uses UHASH; any keyed PRF with the
// same interface works). SipHash gives us a compact, fast, well-studied
// keyed hash without external dependencies.
//
// Four entry points: the general `siphash24(key, data)` for
// variable-length messages; `SipHasher`, the same hash fed in parts; a
// fixed-length fast path — `SipSchedule` caches the key-mixed initial
// state once, and `siphash24_fixed<N>` hashes an N-byte message with the
// block loop unrolled at compile time; and a batch path —
// `siphash24_fixed_batch<N>` hashes `count` contiguous N-byte messages at
// once, running 4 (SSE2) or 8 (AVX2) independent SipHash lanes per
// instruction where the CPU allows it. The dispatch level is detected
// once at startup and can be capped at runtime (set_simd_level_cap) to
// force the narrower paths. Every path — scalar, SSE2, AVX2 — produces
// bit-identical digests: the kernels perform the same 64-bit adds,
// rotates and xors on independent lanes, so there is no reassociation, no
// rounding, and no lane interaction to diverge.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

/// Compile-time gate for the SIMD batch kernels: configure the build with
/// -DFATIH_SIMD=OFF (CMake) to compile them out and force the scalar path
/// everywhere — the sanitizer CI job builds this way.
#ifndef FATIH_SIMD
#define FATIH_SIMD 1
#endif
#if FATIH_SIMD && defined(__x86_64__) && defined(__GNUC__)
#define FATIH_SIPHASH_SIMD 1
#else
#define FATIH_SIPHASH_SIMD 0
#endif

namespace fatih::crypto {

/// A 128-bit SipHash key.
struct SipKey {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;

  constexpr bool operator==(const SipKey&) const = default;
};

namespace detail {

constexpr std::uint64_t rotl(std::uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

struct SipState {
  std::uint64_t v0, v1, v2, v3;

  void round() {
    v0 += v1;
    v1 = rotl(v1, 13);
    v1 ^= v0;
    v0 = rotl(v0, 32);
    v2 += v3;
    v3 = rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl(v1, 17);
    v1 ^= v2;
    v2 = rotl(v2, 32);
  }

  void absorb(std::uint64_t m) {
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  }

  [[nodiscard]] std::uint64_t finalize() {
    v2 ^= 0xFF;
    round();
    round();
    round();
    round();
    return v0 ^ v1 ^ v2 ^ v3;
  }
};

inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  // Simulator targets are little-endian; a big-endian port would byteswap here.
  return v;
}

}  // namespace detail

/// The key-dependent part of SipHash initialization, computed once and
/// reused across messages (the per-packet fingerprint path hashes millions
/// of messages under one key).
struct SipSchedule {
  std::uint64_t v0, v1, v2, v3;

  constexpr explicit SipSchedule(SipKey key)
      : v0(key.k0 ^ 0x736F6D6570736575ULL),
        v1(key.k1 ^ 0x646F72616E646F6DULL),
        v2(key.k0 ^ 0x6C7967656E657261ULL),
        v3(key.k1 ^ 0x7465646279746573ULL) {}
};

/// SipHash-2-4 of exactly `N` bytes (N a multiple of 8) under a cached
/// schedule: the compression loop unrolls at compile time and the
/// odd-tail handling drops out entirely. Bit-identical to
/// `siphash24(key, data, N)`.
template <std::size_t N>
[[nodiscard]] inline std::uint64_t siphash24_fixed(const SipSchedule& sched, const void* data) {
  static_assert(N % 8 == 0, "fixed-path messages must be whole 8-byte blocks");
  detail::SipState s{sched.v0, sched.v1, sched.v2, sched.v3};
  const auto* in = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < N / 8; ++i) {  // unrolled: N is a constant
    s.absorb(detail::load_le64(in + i * 8));
  }
  // Final block: no tail bytes, just the message length in the top byte.
  s.absorb(static_cast<std::uint64_t>(N & 0xFF) << 56);
  return s.finalize();
}

/// Streaming SipHash-2-4: feed one message in any number of parts with
/// update(), then take the digest with finish(). Bit-identical to
/// siphash24 over the concatenated parts, so a caller can hash fields that
/// live in different buffers without copying them into one.
class SipHasher {
 public:
  explicit SipHasher(SipKey key);

  void update(std::span<const std::byte> data);
  void update(const void* data, std::size_t len);
  /// The digest of everything fed so far. Call once.
  [[nodiscard]] std::uint64_t finish();

 private:
  detail::SipState s_{};
  std::uint64_t tail_ = 0;  ///< bytes of the unfinished block, little-endian
  std::size_t len_ = 0;     ///< message bytes fed so far
};

/// Computes SipHash-2-4 of `data` under `key`.
[[nodiscard]] std::uint64_t siphash24(SipKey key, std::span<const std::byte> data);

/// Convenience overload for raw buffers.
[[nodiscard]] std::uint64_t siphash24(SipKey key, const void* data, std::size_t len);

/// Vector width the batch path dispatches to. Ordered: every level
/// includes the capabilities of the narrower ones, and the dispatcher
/// falls through level by level (AVX2 groups of 8, then SSE2 groups of 4,
/// then scalar for the tail).
enum class SimdLevel : int {
  kScalar = 0,  ///< plain 64-bit integer code (always available)
  kSse2 = 1,    ///< 4 lanes: two 2x64-bit states interleaved
  kAvx2 = 2,    ///< 8 lanes: two 4x64-bit states interleaved
  kAvx512 = 3,  ///< 8/16 lanes: single-uop rotates (vprolq) carry the round
};

/// Widest batch the current dispatch level fills in one kernel call
/// (16 / 8 / 4 / 1). Callers that accumulate packets into lane-width
/// batches size their buffers with this.
[[nodiscard]] std::size_t simd_batch_width();

/// Effective dispatch level: min(detected CPU capability, configured
/// cap). Detection runs once; builds with FATIH_SIMD off (or non-x86-64
/// targets) always report kScalar.
[[nodiscard]] SimdLevel simd_level();

/// Caps the dispatch level and returns the previous cap. Tests use this to
/// run the same inputs through scalar, SSE2 and AVX2 and diff the digests;
/// it can only narrow what the CPU supports, never exceed it.
SimdLevel set_simd_level_cap(SimdLevel cap);

#if FATIH_SIPHASH_SIMD
namespace detail {
/// Batch kernels (siphash.cpp — the only translation unit with vector
/// intrinsics, enforced by fatih-lint simd-containment). Each hashes
/// `lane count` contiguous msg_bytes-sized messages starting at `in`
/// (message i at in + i * msg_bytes); msg_bytes must be a multiple of 8.
void sip4_sse2(const SipSchedule& sched, const std::uint8_t* in, std::size_t msg_bytes,
               std::uint64_t* out);
void sip8_avx2(const SipSchedule& sched, const std::uint8_t* in, std::size_t msg_bytes,
               std::uint64_t* out);
void sip8_avx512(const SipSchedule& sched, const std::uint8_t* in, std::size_t msg_bytes,
                 std::uint64_t* out);
void sip16_avx512(const SipSchedule& sched, const std::uint8_t* in, std::size_t msg_bytes,
                  std::uint64_t* out);
}  // namespace detail
#endif

/// SipHash-2-4 of `count` contiguous N-byte messages (message i at
/// data + i*N), digests written to out[0..count). Bit-identical to
/// calling siphash24_fixed<N> per message on every dispatch path; the
/// scalar tail (count % lane width) always exercises the scalar code, so
/// no batch size hides a divergent kernel.
template <std::size_t N>
inline void siphash24_fixed_batch(const SipSchedule& sched, const void* data, std::size_t count,
                                  std::uint64_t* out) {
  static_assert(N % 8 == 0, "fixed-path messages must be whole 8-byte blocks");
  const auto* in = static_cast<const std::uint8_t*>(data);
  std::size_t i = 0;
#if FATIH_SIPHASH_SIMD
  const SimdLevel level = simd_level();
  if (level == SimdLevel::kAvx512) {
    for (; i + 16 <= count; i += 16) detail::sip16_avx512(sched, in + i * N, N, out + i);
    for (; i + 8 <= count; i += 8) detail::sip8_avx512(sched, in + i * N, N, out + i);
  } else if (level == SimdLevel::kAvx2) {
    for (; i + 8 <= count; i += 8) detail::sip8_avx2(sched, in + i * N, N, out + i);
  }
  if (level >= SimdLevel::kSse2) {
    for (; i + 4 <= count; i += 4) detail::sip4_sse2(sched, in + i * N, N, out + i);
  }
#endif
  for (; i < count; ++i) out[i] = siphash24_fixed<N>(sched, in + i * N);
}

}  // namespace fatih::crypto

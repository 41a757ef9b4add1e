#include "crypto/siphash.hpp"

#if FATIH_SIPHASH_SIMD
#include <immintrin.h>
#endif

namespace fatih::crypto {

SipHasher::SipHasher(SipKey key) {
  const SipSchedule sched(key);
  s_ = detail::SipState{sched.v0, sched.v1, sched.v2, sched.v3};
}

void SipHasher::update(std::span<const std::byte> data) {
  const auto* in = reinterpret_cast<const std::uint8_t*>(data.data());
  std::size_t n = data.size();
  std::size_t pending = len_ & 7;
  len_ += n;
  // Top up the unfinished block from an earlier part first.
  if (pending != 0) {
    for (; pending < 8 && n > 0; ++pending, ++in, --n) {
      tail_ |= static_cast<std::uint64_t>(*in) << (8 * pending);
    }
    if (pending < 8) return;
    s_.absorb(tail_);
    tail_ = 0;
  }
  for (; n >= 8; n -= 8, in += 8) s_.absorb(detail::load_le64(in));
  for (std::size_t i = 0; i < n; ++i) tail_ |= static_cast<std::uint64_t>(in[i]) << (8 * i);
}

void SipHasher::update(const void* data, std::size_t len) {
  update(std::span<const std::byte>(static_cast<const std::byte*>(data), len));
}

std::uint64_t SipHasher::finish() {
  // Final block: the remaining bytes plus the length in the top byte.
  s_.absorb(tail_ | static_cast<std::uint64_t>(len_ & 0xFF) << 56);
  return s_.finalize();
}

std::uint64_t siphash24(SipKey key, std::span<const std::byte> data) {
  SipHasher h(key);
  h.update(data);
  return h.finish();
}

std::uint64_t siphash24(SipKey key, const void* data, std::size_t len) {
  return siphash24(key, std::span<const std::byte>(static_cast<const std::byte*>(data), len));
}

// ------------------------------------------------------------ dispatch level

namespace {

SimdLevel detect_level() {
#if FATIH_SIPHASH_SIMD
  // SSE2 is part of the x86-64 baseline; the wider tiers need a probe.
  if (__builtin_cpu_supports("avx512f")) return SimdLevel::kAvx512;
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  return SimdLevel::kSse2;
#else
  return SimdLevel::kScalar;
#endif
}

// Cap defaults to the widest level, i.e. "whatever the CPU has". Not
// atomic: the simulator is single-threaded and tests flip it between runs.
SimdLevel g_simd_cap = SimdLevel::kAvx512;

}  // namespace

SimdLevel simd_level() {
  static const SimdLevel detected = detect_level();
  return g_simd_cap < detected ? g_simd_cap : detected;
}

SimdLevel set_simd_level_cap(SimdLevel cap) {
  const SimdLevel old = g_simd_cap;
  g_simd_cap = cap;
  return old;
}

std::size_t simd_batch_width() {
  switch (simd_level()) {
    case SimdLevel::kAvx512: return 16;
    case SimdLevel::kAvx2: return 8;
    case SimdLevel::kSse2: return 4;
    case SimdLevel::kScalar: return 1;
  }
  return 1;
}

#if FATIH_SIPHASH_SIMD

// ------------------------------------------------------------- SIMD kernels
//
// Layout: one vector register holds the same SipHash state variable for 2
// (SSE2) or 4 (AVX2) independent messages, and each kernel interleaves TWO
// such states — SipHash's round is a serial dependency chain, so a single
// vector state would leave the ALU ports idle; two interleaved states give
// the out-of-order core independent work every cycle. All operations are
// 64-bit lane-local adds, shifts and xors: no rounding, no reassociation,
// no cross-lane mixing — which is the whole determinism argument. The
// rotate-by-32 uses a 32-bit shuffle (one uop); the remaining rotates are
// shift/shift/or.

namespace detail {

namespace {

inline __m128i rotl64_sse(__m128i x, int b) {
  return _mm_or_si128(_mm_slli_epi64(x, b), _mm_srli_epi64(x, 64 - b));
}

inline __m128i rot32_sse(__m128i x) { return _mm_shuffle_epi32(x, _MM_SHUFFLE(2, 3, 0, 1)); }

inline void sip_round_sse(__m128i& v0, __m128i& v1, __m128i& v2, __m128i& v3) {
  v0 = _mm_add_epi64(v0, v1);
  v1 = rotl64_sse(v1, 13);
  v1 = _mm_xor_si128(v1, v0);
  v0 = rot32_sse(v0);
  v2 = _mm_add_epi64(v2, v3);
  v3 = rotl64_sse(v3, 16);
  v3 = _mm_xor_si128(v3, v2);
  v0 = _mm_add_epi64(v0, v3);
  v3 = rotl64_sse(v3, 21);
  v3 = _mm_xor_si128(v3, v0);
  v2 = _mm_add_epi64(v2, v1);
  v1 = rotl64_sse(v1, 17);
  v1 = _mm_xor_si128(v1, v2);
  v2 = rot32_sse(v2);
}

__attribute__((target("avx2"))) inline __m256i rotl64_avx(__m256i x, int b) {
  return _mm256_or_si256(_mm256_slli_epi64(x, b), _mm256_srli_epi64(x, 64 - b));
}

__attribute__((target("avx2"))) inline __m256i rot32_avx(__m256i x) {
  return _mm256_shuffle_epi32(x, _MM_SHUFFLE(2, 3, 0, 1));
}

__attribute__((target("avx2"))) inline void sip_round_avx(__m256i& v0, __m256i& v1, __m256i& v2,
                                                          __m256i& v3) {
  v0 = _mm256_add_epi64(v0, v1);
  v1 = rotl64_avx(v1, 13);
  v1 = _mm256_xor_si256(v1, v0);
  v0 = rot32_avx(v0);
  v2 = _mm256_add_epi64(v2, v3);
  v3 = rotl64_avx(v3, 16);
  v3 = _mm256_xor_si256(v3, v2);
  v0 = _mm256_add_epi64(v0, v3);
  v3 = rotl64_avx(v3, 21);
  v3 = _mm256_xor_si256(v3, v0);
  v2 = _mm256_add_epi64(v2, v1);
  v1 = rotl64_avx(v1, 17);
  v1 = _mm256_xor_si256(v1, v2);
  v2 = rot32_avx(v2);
}

// GCC's _mm512_rol_epi64 routes through _mm512_undefined_epi32(), whose
// deliberate self-initialization ("__Y = __Y") trips -Wuninitialized under
// -O0 -Werror even though the merge lanes are fully masked off. Silence the
// false positive for the AVX-512 kernels only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx512f"))) inline void sip_round_avx512(__m512i& v0, __m512i& v1,
                                                                __m512i& v2, __m512i& v3) {
  // vprolq makes every rotate a single instruction — this is what lifts
  // the AVX-512 tier past the shift/shift/or tiers below.
  v0 = _mm512_add_epi64(v0, v1);
  v1 = _mm512_rol_epi64(v1, 13);
  v1 = _mm512_xor_si512(v1, v0);
  v0 = _mm512_rol_epi64(v0, 32);
  v2 = _mm512_add_epi64(v2, v3);
  v3 = _mm512_rol_epi64(v3, 16);
  v3 = _mm512_xor_si512(v3, v2);
  v0 = _mm512_add_epi64(v0, v3);
  v3 = _mm512_rol_epi64(v3, 21);
  v3 = _mm512_xor_si512(v3, v0);
  v2 = _mm512_add_epi64(v2, v1);
  v1 = _mm512_rol_epi64(v1, 17);
  v1 = _mm512_xor_si512(v1, v2);
  v2 = _mm512_rol_epi64(v2, 32);
}

__attribute__((target("avx512f"))) inline __m512i load8_avx512(const std::uint8_t* in,
                                                               std::size_t msg_bytes,
                                                               std::size_t off) {
  return _mm512_set_epi64(static_cast<long long>(load_le64(in + 7 * msg_bytes + off)),
                          static_cast<long long>(load_le64(in + 6 * msg_bytes + off)),
                          static_cast<long long>(load_le64(in + 5 * msg_bytes + off)),
                          static_cast<long long>(load_le64(in + 4 * msg_bytes + off)),
                          static_cast<long long>(load_le64(in + 3 * msg_bytes + off)),
                          static_cast<long long>(load_le64(in + 2 * msg_bytes + off)),
                          static_cast<long long>(load_le64(in + msg_bytes + off)),
                          static_cast<long long>(load_le64(in + off)));
}

}  // namespace

void sip4_sse2(const SipSchedule& sched, const std::uint8_t* in, std::size_t msg_bytes,
               std::uint64_t* out) {
  // State A carries messages 0-1, state B messages 2-3.
  __m128i a0 = _mm_set1_epi64x(static_cast<long long>(sched.v0));
  __m128i a1 = _mm_set1_epi64x(static_cast<long long>(sched.v1));
  __m128i a2 = _mm_set1_epi64x(static_cast<long long>(sched.v2));
  __m128i a3 = _mm_set1_epi64x(static_cast<long long>(sched.v3));
  __m128i b0 = a0, b1 = a1, b2 = a2, b3 = a3;

  const std::size_t nblocks = msg_bytes / 8;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t off = b * 8;
    const __m128i ma =
        _mm_set_epi64x(static_cast<long long>(load_le64(in + msg_bytes + off)),
                       static_cast<long long>(load_le64(in + off)));
    const __m128i mb =
        _mm_set_epi64x(static_cast<long long>(load_le64(in + 3 * msg_bytes + off)),
                       static_cast<long long>(load_le64(in + 2 * msg_bytes + off)));
    a3 = _mm_xor_si128(a3, ma);
    b3 = _mm_xor_si128(b3, mb);
    sip_round_sse(a0, a1, a2, a3);
    sip_round_sse(b0, b1, b2, b3);
    sip_round_sse(a0, a1, a2, a3);
    sip_round_sse(b0, b1, b2, b3);
    a0 = _mm_xor_si128(a0, ma);
    b0 = _mm_xor_si128(b0, mb);
  }

  // Final block (same for all lanes: fixed-length messages, no tail).
  const __m128i fin =
      _mm_set1_epi64x(static_cast<long long>(static_cast<std::uint64_t>(msg_bytes & 0xFF) << 56));
  a3 = _mm_xor_si128(a3, fin);
  b3 = _mm_xor_si128(b3, fin);
  sip_round_sse(a0, a1, a2, a3);
  sip_round_sse(b0, b1, b2, b3);
  sip_round_sse(a0, a1, a2, a3);
  sip_round_sse(b0, b1, b2, b3);
  a0 = _mm_xor_si128(a0, fin);
  b0 = _mm_xor_si128(b0, fin);

  const __m128i ff = _mm_set1_epi64x(0xFF);
  a2 = _mm_xor_si128(a2, ff);
  b2 = _mm_xor_si128(b2, ff);
  for (int r = 0; r < 4; ++r) {
    sip_round_sse(a0, a1, a2, a3);
    sip_round_sse(b0, b1, b2, b3);
  }

  const __m128i da = _mm_xor_si128(_mm_xor_si128(a0, a1), _mm_xor_si128(a2, a3));
  const __m128i db = _mm_xor_si128(_mm_xor_si128(b0, b1), _mm_xor_si128(b2, b3));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), da);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2), db);
}

__attribute__((target("avx2"))) void sip8_avx2(const SipSchedule& sched, const std::uint8_t* in,
                                               std::size_t msg_bytes, std::uint64_t* out) {
  // State A carries messages 0-3, state B messages 4-7.
  __m256i a0 = _mm256_set1_epi64x(static_cast<long long>(sched.v0));
  __m256i a1 = _mm256_set1_epi64x(static_cast<long long>(sched.v1));
  __m256i a2 = _mm256_set1_epi64x(static_cast<long long>(sched.v2));
  __m256i a3 = _mm256_set1_epi64x(static_cast<long long>(sched.v3));
  __m256i b0 = a0, b1 = a1, b2 = a2, b3 = a3;

  const std::size_t nblocks = msg_bytes / 8;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t off = b * 8;
    const __m256i ma =
        _mm256_set_epi64x(static_cast<long long>(load_le64(in + 3 * msg_bytes + off)),
                          static_cast<long long>(load_le64(in + 2 * msg_bytes + off)),
                          static_cast<long long>(load_le64(in + msg_bytes + off)),
                          static_cast<long long>(load_le64(in + off)));
    const __m256i mb =
        _mm256_set_epi64x(static_cast<long long>(load_le64(in + 7 * msg_bytes + off)),
                          static_cast<long long>(load_le64(in + 6 * msg_bytes + off)),
                          static_cast<long long>(load_le64(in + 5 * msg_bytes + off)),
                          static_cast<long long>(load_le64(in + 4 * msg_bytes + off)));
    a3 = _mm256_xor_si256(a3, ma);
    b3 = _mm256_xor_si256(b3, mb);
    sip_round_avx(a0, a1, a2, a3);
    sip_round_avx(b0, b1, b2, b3);
    sip_round_avx(a0, a1, a2, a3);
    sip_round_avx(b0, b1, b2, b3);
    a0 = _mm256_xor_si256(a0, ma);
    b0 = _mm256_xor_si256(b0, mb);
  }

  const __m256i fin = _mm256_set1_epi64x(
      static_cast<long long>(static_cast<std::uint64_t>(msg_bytes & 0xFF) << 56));
  a3 = _mm256_xor_si256(a3, fin);
  b3 = _mm256_xor_si256(b3, fin);
  sip_round_avx(a0, a1, a2, a3);
  sip_round_avx(b0, b1, b2, b3);
  sip_round_avx(a0, a1, a2, a3);
  sip_round_avx(b0, b1, b2, b3);
  a0 = _mm256_xor_si256(a0, fin);
  b0 = _mm256_xor_si256(b0, fin);

  const __m256i ff = _mm256_set1_epi64x(0xFF);
  a2 = _mm256_xor_si256(a2, ff);
  b2 = _mm256_xor_si256(b2, ff);
  for (int r = 0; r < 4; ++r) {
    sip_round_avx(a0, a1, a2, a3);
    sip_round_avx(b0, b1, b2, b3);
  }

  const __m256i da = _mm256_xor_si256(_mm256_xor_si256(a0, a1), _mm256_xor_si256(a2, a3));
  const __m256i db = _mm256_xor_si256(_mm256_xor_si256(b0, b1), _mm256_xor_si256(b2, b3));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), da);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4), db);
}

__attribute__((target("avx512f"))) void sip8_avx512(const SipSchedule& sched,
                                                    const std::uint8_t* in, std::size_t msg_bytes,
                                                    std::uint64_t* out) {
  // Single 8-lane state: latency-bound on the round's dependency chain,
  // but still the fastest 8-message kernel thanks to vprolq.
  __m512i v0 = _mm512_set1_epi64(static_cast<long long>(sched.v0));
  __m512i v1 = _mm512_set1_epi64(static_cast<long long>(sched.v1));
  __m512i v2 = _mm512_set1_epi64(static_cast<long long>(sched.v2));
  __m512i v3 = _mm512_set1_epi64(static_cast<long long>(sched.v3));

  const std::size_t nblocks = msg_bytes / 8;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const __m512i m = load8_avx512(in, msg_bytes, b * 8);
    v3 = _mm512_xor_si512(v3, m);
    sip_round_avx512(v0, v1, v2, v3);
    sip_round_avx512(v0, v1, v2, v3);
    v0 = _mm512_xor_si512(v0, m);
  }

  const __m512i fin = _mm512_set1_epi64(
      static_cast<long long>(static_cast<std::uint64_t>(msg_bytes & 0xFF) << 56));
  v3 = _mm512_xor_si512(v3, fin);
  sip_round_avx512(v0, v1, v2, v3);
  sip_round_avx512(v0, v1, v2, v3);
  v0 = _mm512_xor_si512(v0, fin);

  v2 = _mm512_xor_si512(v2, _mm512_set1_epi64(0xFF));
  for (int r = 0; r < 4; ++r) sip_round_avx512(v0, v1, v2, v3);

  const __m512i d = _mm512_xor_si512(_mm512_xor_si512(v0, v1), _mm512_xor_si512(v2, v3));
  _mm512_storeu_si512(out, d);
}

__attribute__((target("avx512f"))) void sip16_avx512(const SipSchedule& sched,
                                                     const std::uint8_t* in,
                                                     std::size_t msg_bytes, std::uint64_t* out) {
  // Two interleaved 8-lane states: state A messages 0-7, state B 8-15.
  __m512i a0 = _mm512_set1_epi64(static_cast<long long>(sched.v0));
  __m512i a1 = _mm512_set1_epi64(static_cast<long long>(sched.v1));
  __m512i a2 = _mm512_set1_epi64(static_cast<long long>(sched.v2));
  __m512i a3 = _mm512_set1_epi64(static_cast<long long>(sched.v3));
  __m512i b0 = a0, b1 = a1, b2 = a2, b3 = a3;

  const std::size_t nblocks = msg_bytes / 8;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t off = b * 8;
    const __m512i ma = load8_avx512(in, msg_bytes, off);
    const __m512i mb = load8_avx512(in + 8 * msg_bytes, msg_bytes, off);
    a3 = _mm512_xor_si512(a3, ma);
    b3 = _mm512_xor_si512(b3, mb);
    sip_round_avx512(a0, a1, a2, a3);
    sip_round_avx512(b0, b1, b2, b3);
    sip_round_avx512(a0, a1, a2, a3);
    sip_round_avx512(b0, b1, b2, b3);
    a0 = _mm512_xor_si512(a0, ma);
    b0 = _mm512_xor_si512(b0, mb);
  }

  const __m512i fin = _mm512_set1_epi64(
      static_cast<long long>(static_cast<std::uint64_t>(msg_bytes & 0xFF) << 56));
  a3 = _mm512_xor_si512(a3, fin);
  b3 = _mm512_xor_si512(b3, fin);
  sip_round_avx512(a0, a1, a2, a3);
  sip_round_avx512(b0, b1, b2, b3);
  sip_round_avx512(a0, a1, a2, a3);
  sip_round_avx512(b0, b1, b2, b3);
  a0 = _mm512_xor_si512(a0, fin);
  b0 = _mm512_xor_si512(b0, fin);

  const __m512i ff = _mm512_set1_epi64(0xFF);
  a2 = _mm512_xor_si512(a2, ff);
  b2 = _mm512_xor_si512(b2, ff);
  for (int r = 0; r < 4; ++r) {
    sip_round_avx512(a0, a1, a2, a3);
    sip_round_avx512(b0, b1, b2, b3);
  }

  const __m512i da = _mm512_xor_si512(_mm512_xor_si512(a0, a1), _mm512_xor_si512(a2, a3));
  const __m512i db = _mm512_xor_si512(_mm512_xor_si512(b0, b1), _mm512_xor_si512(b2, b3));
  _mm512_storeu_si512(out, da);
  _mm512_storeu_si512(out + 8, db);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace detail

#endif  // FATIH_SIPHASH_SIMD

}  // namespace fatih::crypto

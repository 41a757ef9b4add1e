#include "crypto/siphash.hpp"

#include <gtest/gtest.h>

#include <array>
#include <span>
#include <vector>

namespace fatih::crypto {
namespace {

// Reference test vectors from the SipHash reference implementation
// (Aumasson & Bernstein): key = 00 01 .. 0f, message = 00 01 .. (len-1),
// output interpreted little-endian.
constexpr SipKey reference_key() {
  // Bytes 00..07 and 08..0f as little-endian words.
  return SipKey{0x0706050403020100ULL, 0x0F0E0D0C0B0A0908ULL};
}

std::vector<std::byte> message(std::size_t len) {
  std::vector<std::byte> m(len);
  for (std::size_t i = 0; i < len; ++i) m[i] = static_cast<std::byte>(i);
  return m;
}

struct Vector {
  std::size_t len;
  std::uint64_t expected;
};

class SipHashVectors : public ::testing::TestWithParam<Vector> {};

TEST_P(SipHashVectors, MatchesReference) {
  const auto [len, expected] = GetParam();
  const auto msg = message(len);
  EXPECT_EQ(siphash24(reference_key(), msg), expected) << "len=" << len;
}

INSTANTIATE_TEST_SUITE_P(Reference, SipHashVectors,
                         ::testing::Values(Vector{0, 0x726fdb47dd0e0e31ULL},
                                           Vector{1, 0x74f839c593dc67fdULL},
                                           Vector{2, 0x0d6c8009d9a94f5aULL},
                                           Vector{3, 0x85676696d7fb7e2dULL},
                                           Vector{4, 0xcf2794e0277187b7ULL},
                                           Vector{5, 0x18765564cd99a68dULL},
                                           Vector{6, 0xcbc9466e58fee3ceULL},
                                           Vector{7, 0xab0200f58b01d137ULL},
                                           Vector{8, 0x93f5f5799a932462ULL},
                                           // The worked example of the SipHash paper.
                                           Vector{15, 0xa129ca6149be45e5ULL}));

TEST(SipHash, KeyDependence) {
  const auto msg = message(16);
  const SipKey k1{1, 2};
  const SipKey k2{1, 3};
  EXPECT_NE(siphash24(k1, msg), siphash24(k2, msg));
}

TEST(SipHash, MessageSensitivity) {
  const SipKey k{42, 43};
  auto m1 = message(32);
  auto m2 = m1;
  m2[31] = static_cast<std::byte>(0xFF);
  EXPECT_NE(siphash24(k, m1), siphash24(k, m2));
}

TEST(SipHash, LengthSensitivity) {
  const SipKey k{42, 43};
  // A message and its zero-extended sibling must differ (length padding).
  std::vector<std::byte> a(8, std::byte{0});
  std::vector<std::byte> b(9, std::byte{0});
  EXPECT_NE(siphash24(k, a), siphash24(k, b));
}

TEST(SipHash, RawPointerOverloadAgrees) {
  const SipKey k{7, 9};
  const auto msg = message(23);
  EXPECT_EQ(siphash24(k, msg), siphash24(k, msg.data(), msg.size()));
}

// Every two- and three-part split of every message up to 80 bytes (ten
// blocks) hashes like the whole message: the parts may end mid-block, be
// empty, or cover several blocks.
TEST(SipHasher, EverySplitMatchesOneShot) {
  const SipKey k{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL};
  for (std::size_t len = 0; len <= 80; ++len) {
    const auto msg = message(len);
    const std::span<const std::byte> all(msg);
    const std::uint64_t expected = siphash24(k, msg);
    for (std::size_t a = 0; a <= len; ++a) {
      SipHasher two(k);
      two.update(all.first(a));
      two.update(all.subspan(a));
      ASSERT_EQ(two.finish(), expected) << "len=" << len << " split=" << a;
      for (std::size_t b = a; b <= len; ++b) {
        SipHasher three(k);
        three.update(all.first(a));
        three.update(msg.data() + a, b - a);  // the raw-pointer overload
        three.update(all.subspan(b));
        ASSERT_EQ(three.finish(), expected) << "len=" << len << " splits=" << a << "," << b;
      }
    }
  }
}

}  // namespace
}  // namespace fatih::crypto

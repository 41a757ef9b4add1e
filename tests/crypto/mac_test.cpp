#include "crypto/mac.hpp"

#include <gtest/gtest.h>

namespace fatih::crypto {
namespace {

std::vector<std::byte> bytes_of(std::string_view s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(Mac, Deterministic) {
  const SipKey k{1, 2};
  const auto m = bytes_of("hello world");
  EXPECT_EQ(compute_mac(k, m), compute_mac(k, m));
}

TEST(Mac, KeySeparation) {
  const auto m = bytes_of("hello world");
  EXPECT_NE(compute_mac(SipKey{1, 2}, m), compute_mac(SipKey{1, 3}, m));
}

TEST(SignedEnvelope, RoundTrip) {
  const KeyRegistry reg(7);
  const auto env = sign(reg, 4, bytes_of("detection announcement"));
  EXPECT_EQ(env.signer, 4U);
  EXPECT_TRUE(verify(reg, env));
}

TEST(SignedEnvelope, TamperedPayloadRejected) {
  const KeyRegistry reg(7);
  auto env = sign(reg, 4, bytes_of("original"));
  env.payload[0] = static_cast<std::byte>(0xFF);
  EXPECT_FALSE(verify(reg, env));
}

TEST(SignedEnvelope, ReattributionRejected) {
  // A faulty router cannot claim another router's envelope as its own.
  const KeyRegistry reg(7);
  auto env = sign(reg, 4, bytes_of("summary"));
  env.signer = 5;
  EXPECT_FALSE(verify(reg, env));
}

TEST(SignedEnvelope, ForgedTagRejected) {
  const KeyRegistry reg(7);
  auto env = sign(reg, 4, bytes_of("summary"));
  env.tag ^= 1;
  EXPECT_FALSE(verify(reg, env));
}

TEST(SignedEnvelope, InvalidSignerRejected) {
  const KeyRegistry reg(7);
  SignedEnvelope env;
  EXPECT_FALSE(verify(reg, env));
}

TEST(SignedEnvelope, EmptyPayloadSignable) {
  const KeyRegistry reg(7);
  const auto env = sign(reg, 0, {});
  EXPECT_TRUE(verify(reg, env));
}

// The tag of signer ‖ payload, pinned bit for bit: however the two parts
// reach the MAC, signatures already on record must still verify.
TEST(SignedEnvelope, TagIsPinned) {
  const KeyRegistry reg(7);
  EXPECT_EQ(sign(reg, 4, {}).tag, 0xD9DD5BE67438DB6BULL);
  std::vector<std::byte> payload(37);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 7 + 1);
  }
  EXPECT_EQ(sign(reg, 4, payload).tag, 0x7707DECB4C4FEFD5ULL);
}

TEST(ByteHelpers, AppendAndReadRoundTrip) {
  std::vector<std::byte> buf;
  append_bytes(buf, std::uint32_t{0xDEADBEEF});
  append_bytes(buf, std::int64_t{-42});
  std::size_t offset = 0;
  std::uint32_t a = 0;
  std::int64_t b = 0;
  EXPECT_TRUE(read_bytes(buf, offset, a));
  EXPECT_TRUE(read_bytes(buf, offset, b));
  EXPECT_EQ(a, 0xDEADBEEF);
  EXPECT_EQ(b, -42);
  std::uint8_t c = 0;
  EXPECT_FALSE(read_bytes(buf, offset, c));  // exhausted
}

}  // namespace
}  // namespace fatih::crypto

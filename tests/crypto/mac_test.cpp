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

TEST(SignedEnvelope, VerifyUnderLookedUpKeyMatchesRegistry) {
  // The overload a verifier with a key table calls must agree with the
  // registry lookup on valid, payload-flipped and tag-flipped envelopes,
  // and reject kInvalidNode even under the key its tag was made with.
  const KeyRegistry reg(7);
  for (util::NodeId signer : {0U, 4U, 1000U, util::kInvalidNode}) {
    const SignedEnvelope valid = sign(reg, signer, bytes_of("flooded summary"));
    SignedEnvelope flipped_payload = valid;
    flipped_payload.payload[3] ^= std::byte{0x40};
    SignedEnvelope flipped_tag = valid;
    flipped_tag.tag ^= 1;
    const SipKey key = reg.signing_key(signer);
    for (const SignedEnvelope& env : {valid, flipped_payload, flipped_tag}) {
      EXPECT_EQ(verify(key, env), verify(reg, env)) << signer;
    }
    EXPECT_EQ(verify(key, valid), signer != util::kInvalidNode) << signer;
    EXPECT_FALSE(verify(key, flipped_payload)) << signer;
    EXPECT_FALSE(verify(key, flipped_tag)) << signer;
  }
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

#include "validation/fingerprint.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace fatih::validation {
namespace {

sim::Packet sample_packet() {
  sim::Packet p;
  p.hdr.src = 1;
  p.hdr.dst = 9;
  p.hdr.flow_id = 3;
  p.hdr.seq = 17;
  p.hdr.proto = sim::Protocol::kTcp;
  p.hdr.ttl = 64;
  p.size_bytes = 1000;
  p.payload_tag = 0xABCDEF;
  return p;
}

constexpr crypto::SipKey kKey{11, 22};

TEST(Fingerprint, TtlInvariant) {
  // §7.4.2: mutable header fields must not affect the fingerprint, or
  // downstream routers could never match upstream records.
  auto p1 = sample_packet();
  auto p2 = sample_packet();
  p2.hdr.ttl = 3;
  EXPECT_EQ(packet_fingerprint(kKey, p1), packet_fingerprint(kKey, p2));
}

TEST(Fingerprint, UidAndTimestampInvariant) {
  auto p1 = sample_packet();
  auto p2 = sample_packet();
  p2.uid = 999;
  p2.created = util::SimTime::from_seconds(5);
  EXPECT_EQ(packet_fingerprint(kKey, p1), packet_fingerprint(kKey, p2));
}

TEST(Fingerprint, PayloadSensitive) {
  auto p1 = sample_packet();
  auto p2 = sample_packet();
  p2.payload_tag ^= 1;  // a modified packet
  EXPECT_NE(packet_fingerprint(kKey, p1), packet_fingerprint(kKey, p2));
}

TEST(Fingerprint, HeaderSensitive) {
  const auto base = packet_fingerprint(kKey, sample_packet());
  auto p = sample_packet();
  p.hdr.src = 2;
  EXPECT_NE(packet_fingerprint(kKey, p), base);
  p = sample_packet();
  p.hdr.dst = 2;
  EXPECT_NE(packet_fingerprint(kKey, p), base);
  p = sample_packet();
  p.hdr.seq = 18;
  EXPECT_NE(packet_fingerprint(kKey, p), base);
  p = sample_packet();
  p.size_bytes = 999;
  EXPECT_NE(packet_fingerprint(kKey, p), base);
  p = sample_packet();
  p.hdr.flags = sim::kFlagSyn;
  EXPECT_NE(packet_fingerprint(kKey, p), base);
}

TEST(Fingerprint, BatchMatchesPerPacketOnEveryDispatchLevel) {
  // hash_batch feeds the SIMD lanes; its digests must be byte-identical to
  // operator() per packet on every dispatch path, including the forced
  // scalar fallback and counts that leave lane tails.
  const FingerprintHasher hasher(kKey);
  for (const std::size_t count : {std::size_t{1}, std::size_t{5}, std::size_t{16},
                                  std::size_t{23}, std::size_t{64}}) {
    std::vector<sim::Packet> packets;
    std::vector<PacketInvariant> views;
    for (std::size_t i = 0; i < count; ++i) {
      auto p = sample_packet();
      p.hdr.seq = static_cast<std::uint32_t>(i);
      p.hdr.flow_id = static_cast<std::uint32_t>(i % 7);
      p.payload_tag = 0x1000 + i;
      views.push_back(PacketInvariant::from_packet(p));
      packets.push_back(p);
    }
    std::vector<Fingerprint> want(count);
    for (std::size_t i = 0; i < count; ++i) want[i] = hasher(packets[i]);
    for (const auto cap : {crypto::SimdLevel::kScalar, crypto::SimdLevel::kSse2,
                           crypto::SimdLevel::kAvx2, crypto::SimdLevel::kAvx512}) {
      const auto old = crypto::set_simd_level_cap(cap);
      std::vector<Fingerprint> got(count, 0);
      hasher.hash_batch(views.data(), count, got.data());
      crypto::set_simd_level_cap(old);
      EXPECT_EQ(got, want) << "count=" << count << " cap=" << static_cast<int>(cap);
    }
  }
}

/// The seed's fingerprint, kept as an independent reference: its own view
/// struct in the seed's field order, hashed by the general
/// variable-length SipHash with the key expanded on every call.
Fingerprint seed_fingerprint(crypto::SipKey key, const sim::Packet& p) {
  struct SeedView {
    std::uint32_t src, dst, flow_id, seq, ack;
    std::uint8_t proto, flags;
    std::uint16_t pad;
    std::uint32_t size_bytes;
    std::uint64_t payload_tag;
  };
  SeedView v{};
  v.src = p.hdr.src;
  v.dst = p.hdr.dst;
  v.flow_id = p.hdr.flow_id;
  v.seq = p.hdr.seq;
  v.ack = p.hdr.ack;
  v.proto = static_cast<std::uint8_t>(p.hdr.proto);
  v.flags = p.hdr.flags;
  v.size_bytes = p.size_bytes;
  v.payload_tag = p.payload_tag;
  return crypto::siphash24(key, &v, sizeof v);
}

TEST(Fingerprint, MatchesSeedReference) {
  // Every fingerprint path reproduces the seed's digest: the one-shot call,
  // the cached-schedule hasher, and the public PacketInvariant view that
  // hash_batch consumes. A reordered or resized field fails here.
  util::Rng rng(7);
  const crypto::SipKey keys[] = {kKey, {0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL}};
  for (const crypto::SipKey key : keys) {
    const FingerprintHasher hasher(key);
    const crypto::SipSchedule sched(key);
    for (int i = 0; i < 1024; ++i) {
      const std::uint64_t small = rng.next_u64();
      const std::uint64_t seq_ack = rng.next_u64();
      sim::Packet p;
      p.hdr.src = static_cast<util::NodeId>(small % 64);
      p.hdr.dst = static_cast<util::NodeId>((small >> 8) % 64);
      p.hdr.proto = static_cast<sim::Protocol>((small >> 16) % 3);
      p.hdr.flags = static_cast<std::uint8_t>(small >> 24);
      p.hdr.ttl = static_cast<std::uint8_t>(small >> 32);
      p.size_bytes = 40 + static_cast<std::uint32_t>((small >> 40) % 1461);
      p.hdr.seq = static_cast<std::uint32_t>(seq_ack);
      p.hdr.ack = static_cast<std::uint32_t>(seq_ack >> 32);
      p.hdr.flow_id = static_cast<std::uint32_t>(rng.next_u64());
      p.payload_tag = rng.next_u64();
      const Fingerprint want = seed_fingerprint(key, p);
      ASSERT_EQ(packet_fingerprint(key, p), want) << "packet " << i;
      ASSERT_EQ(hasher(p), want) << "packet " << i;
      const PacketInvariant v = PacketInvariant::from_packet(p);
      ASSERT_EQ(crypto::siphash24_fixed<sizeof(v)>(sched, &v), want) << "packet " << i;
    }
  }
}

TEST(Fingerprint, KeySeparation) {
  // Fingerprints under different segment keys are unlinkable, so interior
  // routers cannot predict another segment's sampling (§5.2.1).
  const auto p = sample_packet();
  EXPECT_NE(packet_fingerprint(crypto::SipKey{1, 2}, p),
            packet_fingerprint(crypto::SipKey{1, 3}, p));
}

}  // namespace
}  // namespace fatih::validation

// Message authentication and simulated digital signatures.
//
// Detection announcements, consensus messages and traffic summaries are
// exchanged as signed envelopes (dissertation §5.1: "data is digitally
// signed to prevent an attack during consensus", notation [x]_i). We model
// a signature as a MAC under the signer's private signing key; verifiers
// consult the KeyRegistry, which plays the role of the public-key
// infrastructure. A faulty router can refuse to sign or sign garbage, but
// cannot produce a valid envelope for another router's identity.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "crypto/keys.hpp"
#include "crypto/siphash.hpp"
#include "util/types.hpp"

namespace fatih::crypto {

/// MAC tag (64-bit; plenty for a simulation adversary).
using MacTag = std::uint64_t;

/// Computes a MAC of `data` under `key` (keyed-hash construction).
[[nodiscard]] MacTag compute_mac(SipKey key, std::span<const std::byte> data);

/// A byte blob attributed to a signer, as flooded through the network.
struct SignedEnvelope {
  util::NodeId signer = util::kInvalidNode;
  std::vector<std::byte> payload;
  MacTag tag = 0;

  bool operator==(const SignedEnvelope&) const = default;
};

/// Signs `payload` as router `signer` using its signing key from `reg`.
[[nodiscard]] SignedEnvelope sign(const KeyRegistry& reg, util::NodeId signer,
                                  std::vector<std::byte> payload);

/// Verifies an envelope under `signing_key`, which the caller looked up
/// for env.signer; false on any mismatch and for kInvalidNode.
[[nodiscard]] bool verify(SipKey signing_key, const SignedEnvelope& env);

/// Verifies an envelope against the registry: the signer's key, then the
/// overload above.
[[nodiscard]] bool verify(const KeyRegistry& reg, const SignedEnvelope& env);

/// Serialization helper: appends a trivially-copyable value to a byte blob.
template <typename T>
void append_bytes(std::vector<std::byte>& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::byte*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

/// Byte equality of two blobs, through memcmp. Payload compares go through
/// here: libstdc++ compares two std::vector<std::byte> one byte at a time.
[[nodiscard]] inline bool equal_bytes(std::span<const std::byte> a,
                                      std::span<const std::byte> b) {
  return a.size() == b.size() && (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// Deserialization helper: reads a trivially-copyable value at `offset`
/// and advances it. Returns false if the blob is too short.
template <typename T>
[[nodiscard]] bool read_bytes(std::span<const std::byte> in, std::size_t& offset, T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (offset + sizeof(T) > in.size()) return false;
  std::memcpy(&value, in.data() + offset, sizeof(T));
  offset += sizeof(T);
  return true;
}

}  // namespace fatih::crypto

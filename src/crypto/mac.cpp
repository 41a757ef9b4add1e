#include "crypto/mac.hpp"

namespace fatih::crypto {

namespace {
// Two-pass keyed hash (HMAC-style inner/outer) to harden against
// extension-style mischief; SipHash itself is already a PRF, so this is
// belt-and-braces.
MacTag outer_mac(SipKey key, std::uint64_t inner) {
  const SipKey outer_key{key.k0 ^ 0x5C5C5C5C5C5C5C5CULL, key.k1 ^ 0x3636363636363636ULL};
  return siphash24(outer_key, &inner, sizeof(inner));
}

// The MAC of signer ‖ payload under the signer's key: binding the signer
// identity into the tag means an envelope cannot be re-attributed. Both
// parts are hashed in place.
MacTag envelope_mac(SipKey key, util::NodeId signer, std::span<const std::byte> payload) {
  SipHasher inner(key);
  inner.update(&signer, sizeof(signer));
  inner.update(payload);
  return outer_mac(key, inner.finish());
}
}  // namespace

MacTag compute_mac(SipKey key, std::span<const std::byte> data) {
  return outer_mac(key, siphash24(key, data));
}

SignedEnvelope sign(const KeyRegistry& reg, util::NodeId signer, std::vector<std::byte> payload) {
  SignedEnvelope env;
  env.signer = signer;
  env.payload = std::move(payload);
  env.tag = envelope_mac(reg.signing_key(signer), signer, env.payload);
  return env;
}

bool verify(SipKey signing_key, const SignedEnvelope& env) {
  if (env.signer == util::kInvalidNode) return false;
  return envelope_mac(signing_key, env.signer, env.payload) == env.tag;
}

bool verify(const KeyRegistry& reg, const SignedEnvelope& env) {
  return verify(reg.signing_key(env.signer), env);
}

}  // namespace fatih::crypto

// Bloom-filter fingerprint digests (dissertation §2.4.1, "conservation of
// content"): a compact alternative to shipping every fingerprint, at some
// cost in accuracy. The symmetric-difference size between two same-shaped
// filters is estimated from the population of their bitwise XOR.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "validation/fingerprint.hpp"

namespace fatih::validation {

/// Fixed-shape Bloom filter over 64-bit fingerprints.
class BloomFilter {
 public:
  /// `bits` is rounded up to a multiple of 64; `hashes` >= 1.
  BloomFilter(std::size_t bits, std::size_t hashes);

  void insert(Fingerprint fp);
  [[nodiscard]] bool maybe_contains(Fingerprint fp) const;

  [[nodiscard]] std::size_t population() const;
  /// Wire size of the filter in bytes.
  [[nodiscard]] std::size_t byte_size() const { return words_.size() * 8; }
  /// Raw bit words (for serialization into summaries).
  [[nodiscard]] const std::vector<std::uint64_t>& words() const { return words_; }
  /// Reconstructs a filter from shipped words.
  static BloomFilter from_words(std::vector<std::uint64_t> words, std::size_t hashes);

  /// Population of the XOR of two same-shaped filters.
  [[nodiscard]] static std::size_t xor_population(const BloomFilter& a, const BloomFilter& b);

  /// Estimates |A symdiff B| from the XOR population (nullopt if the
  /// filters are too saturated for the estimate to be meaningful).
  [[nodiscard]] static std::optional<double> estimate_symmetric_difference(const BloomFilter& a,
                                                                           const BloomFilter& b);

 private:
  std::size_t bits_;
  std::size_t hashes_;
  std::vector<std::uint64_t> words_;
};

}  // namespace fatih::validation

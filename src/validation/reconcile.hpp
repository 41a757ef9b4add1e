// Characteristic-polynomial set reconciliation (dissertation Appendix A;
// Minsky, Trachtenberg & Zippel). Bandwidth-optimal difference discovery:
// to find a symmetric difference of size d, the parties exchange only
// O(d) field elements regardless of set size.
//
// Sets are multiset-free collections of 64-bit fingerprints mapped into
// GF(p), p = 2^61 - 1. Party A sends |A| and the evaluations of its
// characteristic polynomial chi_A(z) = prod (z - a) at agreed sample
// points; party B interpolates the rational function chi_A/chi_B as P/Q
// with deg P - deg Q = |A| - |B|, then extracts
//   roots(P) = A \ B   (via Cantor-Zassenhaus root finding) and
//   roots(Q) = B \ A   (by testing its own elements).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace fatih::validation {

/// Arithmetic in GF(p), p = 2^61 - 1.
namespace gf {
inline constexpr std::uint64_t kP = (1ULL << 61) - 1;

[[nodiscard]] std::uint64_t reduce(std::uint64_t x);
[[nodiscard]] std::uint64_t add(std::uint64_t a, std::uint64_t b);
[[nodiscard]] std::uint64_t sub(std::uint64_t a, std::uint64_t b);
[[nodiscard]] std::uint64_t mul(std::uint64_t a, std::uint64_t b);
[[nodiscard]] std::uint64_t pow(std::uint64_t base, std::uint64_t exp);
[[nodiscard]] std::uint64_t inv(std::uint64_t a);
}  // namespace gf

/// Maps a fingerprint into the field.
[[nodiscard]] inline std::uint64_t to_field(std::uint64_t fp) { return fp % gf::kP; }

/// Deterministic shared evaluation points (domain-separated hashes).
[[nodiscard]] std::vector<std::uint64_t> evaluation_points(std::size_t count);

/// Evaluates chi_S(z) = prod_{s in S} (z - s) at each point.
[[nodiscard]] std::vector<std::uint64_t> char_poly_evaluations(
    std::span<const std::uint64_t> set_elements, std::span<const std::uint64_t> points);

/// What one party learns from reconciliation.
struct ReconcileResult {
  std::vector<std::uint64_t> only_remote;  ///< elements the remote set has, we lack
  std::vector<std::uint64_t> only_local;   ///< elements we have, the remote lacks
};

/// Runs B's side of reconciliation.
///
/// `local`        — our set (field elements, distinct).
/// `remote_evals` — chi_A evaluated at `points` (same order).
/// `remote_count` — |A|.
/// `points`       — the agreed evaluation points (>= d_bound + 2 of them;
///                  the two spares verify the interpolated fit).
/// `d_bound`      — upper bound on |A symdiff B|.
///
/// Returns nullopt when the difference exceeds the bound (caller should
/// retry with more points, as Appendix A prescribes).
[[nodiscard]] std::optional<ReconcileResult> reconcile(std::span<const std::uint64_t> local,
                                                       std::span<const std::uint64_t> remote_evals,
                                                       std::size_t remote_count,
                                                       std::span<const std::uint64_t> points,
                                                       std::size_t d_bound);

/// All roots (in GF(p)) of a polynomial given by coefficients
/// [c0, c1, ..., 1] (monic, degree = coeffs.size() - 1), provided it
/// splits into distinct linear factors; best-effort otherwise.
[[nodiscard]] std::vector<std::uint64_t> find_roots(std::vector<std::uint64_t> monic_coeffs,
                                                    std::uint64_t rng_seed);

}  // namespace fatih::validation

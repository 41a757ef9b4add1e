#include "validation/reconcile.hpp"

#include <algorithm>
#include <cassert>

#include "crypto/siphash.hpp"
#include "util/rng.hpp"

namespace fatih::validation {

namespace gf {

std::uint64_t reduce(std::uint64_t x) {
  // p = 2^61 - 1: fold the top bits.
  x = (x & kP) + (x >> 61);
  if (x >= kP) x -= kP;
  return x;
}

std::uint64_t add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a + b;
  if (s >= kP) s -= kP;
  return s;
}

std::uint64_t sub(std::uint64_t a, std::uint64_t b) { return a >= b ? a - b : a + kP - b; }

std::uint64_t mul(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 prod = static_cast<unsigned __int128>(a) * b;
  const std::uint64_t lo = static_cast<std::uint64_t>(prod & kP);
  const std::uint64_t hi = static_cast<std::uint64_t>(prod >> 61);
  std::uint64_t s = lo + hi;
  if (s >= kP) s -= kP;
  return s;
}

std::uint64_t pow(std::uint64_t base, std::uint64_t exp) {
  std::uint64_t result = 1;
  std::uint64_t b = reduce(base);
  while (exp > 0) {
    if (exp & 1) result = mul(result, b);
    b = mul(b, b);
    exp >>= 1;
  }
  return result;
}

std::uint64_t inv(std::uint64_t a) {
  assert(a % kP != 0);
  return pow(a, kP - 2);  // Fermat
}

}  // namespace gf

namespace {

// Polynomials are coefficient vectors, lowest degree first, over GF(p).
using Poly = std::vector<std::uint64_t>;

void trim(Poly& p) {
  while (!p.empty() && p.back() == 0) p.pop_back();
}

[[nodiscard]] std::uint64_t eval(const Poly& p, std::uint64_t x) {
  std::uint64_t acc = 0;
  for (auto it = p.rbegin(); it != p.rend(); ++it) acc = gf::add(gf::mul(acc, x), *it);
  return acc;
}

[[nodiscard]] Poly mul(const Poly& a, const Poly& b) {
  if (a.empty() || b.empty()) return {};
  Poly out(a.size() + b.size() - 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] = gf::add(out[i + j], gf::mul(a[i], b[j]));
    }
  }
  return out;
}

// Remainder of a mod m (m non-zero).
[[nodiscard]] Poly mod(Poly a, const Poly& m) {
  trim(a);
  const std::size_t dm = m.size() - 1;
  const std::uint64_t lead_inv = gf::inv(m.back());
  while (a.size() > dm) {
    const std::uint64_t coef = gf::mul(a.back(), lead_inv);
    const std::size_t shift = a.size() - 1 - dm;
    for (std::size_t i = 0; i < m.size(); ++i) {
      a[shift + i] = gf::sub(a[shift + i], gf::mul(coef, m[i]));
    }
    trim(a);
    if (a.empty()) break;
  }
  return a;
}

[[nodiscard]] Poly gcd(Poly a, Poly b) {
  trim(a);
  trim(b);
  while (!b.empty()) {
    Poly r = mod(a, b);
    a = std::move(b);
    b = std::move(r);
  }
  // Normalize monic.
  if (!a.empty()) {
    const std::uint64_t li = gf::inv(a.back());
    for (auto& c : a) c = gf::mul(c, li);
  }
  return a;
}

// (x + shift)^exp mod m, via square-and-multiply on polynomials.
[[nodiscard]] Poly pow_linear_mod(std::uint64_t shift, std::uint64_t exp, const Poly& m) {
  Poly result{1};
  Poly base{shift, 1};
  base = mod(base, m);
  while (exp > 0) {
    if (exp & 1) result = mod(mul(result, base), m);
    base = mod(mul(base, base), m);
    exp >>= 1;
  }
  return result;
}

void find_roots_rec(const Poly& p, util::Rng& rng, std::vector<std::uint64_t>& out, int depth) {
  Poly f = p;
  trim(f);
  if (f.size() <= 1) return;
  if (f.size() == 2) {
    // c0 + c1 x = 0  =>  x = -c0 / c1.
    out.push_back(gf::mul(gf::sub(0, f[0]), gf::inv(f[1])));
    return;
  }
  if (depth > 128) return;  // defensive: should never trigger for split polys
  // Equal-degree splitting for linear factors: gcd((x+a)^((p-1)/2) - 1, f).
  const std::uint64_t a = gf::reduce(rng.next_u64());
  Poly h = pow_linear_mod(a, (gf::kP - 1) / 2, f);
  if (h.empty()) {
    h = Poly{gf::kP - 1};  // 0 - 1
  } else {
    h[0] = gf::sub(h[0], 1);
  }
  Poly g = gcd(h, f);
  if (g.size() <= 1 || g.size() == f.size()) {
    find_roots_rec(f, rng, out, depth + 1);  // unlucky split; retry
    return;
  }
  // f = g * (f / g): compute the cofactor by long division.
  Poly cof;
  {
    Poly rem = f;
    const std::size_t dg = g.size() - 1;
    const std::uint64_t li = gf::inv(g.back());
    cof.assign(rem.size() - dg, 0);
    while (rem.size() > dg) {
      const std::uint64_t coef = gf::mul(rem.back(), li);
      const std::size_t shift = rem.size() - 1 - dg;
      cof[shift] = coef;
      for (std::size_t i = 0; i < g.size(); ++i) {
        rem[shift + i] = gf::sub(rem[shift + i], gf::mul(coef, g[i]));
      }
      trim(rem);
      if (rem.empty()) break;
    }
  }
  find_roots_rec(g, rng, out, depth + 1);
  find_roots_rec(cof, rng, out, depth + 1);
}

}  // namespace

std::vector<std::uint64_t> evaluation_points(std::size_t count) {
  constexpr crypto::SipKey kPointKey{0x5245434F4E504F49ULL, 0x4E54534B45593031ULL};
  std::vector<std::uint64_t> points;
  points.reserve(count);
  std::uint64_t i = 0;
  while (points.size() < count) {
    const std::uint64_t v = gf::reduce(crypto::siphash24(kPointKey, &i, sizeof(i)));
    ++i;
    points.push_back(v);
  }
  return points;
}

std::vector<std::uint64_t> char_poly_evaluations(std::span<const std::uint64_t> set_elements,
                                                 std::span<const std::uint64_t> points) {
  std::vector<std::uint64_t> out;
  out.reserve(points.size());
  for (std::uint64_t z : points) {
    std::uint64_t acc = 1;
    for (std::uint64_t s : set_elements) acc = gf::mul(acc, gf::sub(z, s));
    out.push_back(acc);
  }
  return out;
}

std::vector<std::uint64_t> find_roots(std::vector<std::uint64_t> monic_coeffs,
                                      std::uint64_t rng_seed) {
  util::Rng rng(rng_seed);
  std::vector<std::uint64_t> roots;
  find_roots_rec(monic_coeffs, rng, roots, 0);
  std::sort(roots.begin(), roots.end());
  return roots;
}

std::optional<ReconcileResult> reconcile(std::span<const std::uint64_t> local,
                                         std::span<const std::uint64_t> remote_evals,
                                         std::size_t remote_count,
                                         std::span<const std::uint64_t> points,
                                         std::size_t d_bound) {
  assert(remote_evals.size() == points.size());
  const auto local_evals = char_poly_evaluations(local, points);

  // f_i = chi_A(z_i) / chi_B(z_i); skip points colliding with an element.
  std::vector<std::uint64_t> zs;
  std::vector<std::uint64_t> fs;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (local_evals[i] == 0 || remote_evals[i] == 0) continue;
    zs.push_back(points[i]);
    fs.push_back(gf::mul(remote_evals[i], gf::inv(local_evals[i])));
  }

  const std::int64_t delta =
      static_cast<std::int64_t>(remote_count) - static_cast<std::int64_t>(local.size());
  const auto abs_delta = static_cast<std::size_t>(delta < 0 ? -delta : delta);

  for (std::size_t d = abs_delta; d <= d_bound; d += 2) {
    // deg P - deg Q = delta, deg P + deg Q = d.
    const std::int64_t dp2 = static_cast<std::int64_t>(d) + delta;
    const std::int64_t dq2 = static_cast<std::int64_t>(d) - delta;
    if (dp2 < 0 || dq2 < 0 || dp2 % 2 != 0) continue;
    const auto dp = static_cast<std::size_t>(dp2) / 2;
    const auto dq = static_cast<std::size_t>(dq2) / 2;
    const std::size_t unknowns = dp + dq;
    if (zs.size() < unknowns + 2) return std::nullopt;  // not enough points

    // Build the linear system over the first `unknowns` usable points:
    //   sum_j p_j z^j - f * sum_j q_j z^j = f * z^dq - z^dp
    // with columns [p_0..p_{dp-1}, q_0..q_{dq-1}].
    const std::size_t n = unknowns;
    std::vector<std::vector<std::uint64_t>> aug(n, std::vector<std::uint64_t>(n + 1, 0));
    for (std::size_t r = 0; r < n; ++r) {
      const std::uint64_t z = zs[r];
      const std::uint64_t f = fs[r];
      std::uint64_t zp = 1;
      for (std::size_t j = 0; j < dp; ++j) {
        aug[r][j] = zp;
        zp = gf::mul(zp, z);
      }
      // zp == z^dp now.
      std::uint64_t zq = 1;
      for (std::size_t j = 0; j < dq; ++j) {
        aug[r][dp + j] = gf::sub(0, gf::mul(f, zq));
        zq = gf::mul(zq, z);
      }
      // zq == z^dq now.
      aug[r][n] = gf::sub(gf::mul(f, zq), zp);
    }

    // Gaussian elimination mod p.
    bool singular = false;
    for (std::size_t col = 0; col < n && !singular; ++col) {
      std::size_t pivot = col;
      while (pivot < n && aug[pivot][col] == 0) ++pivot;
      if (pivot == n) {
        singular = true;
        break;
      }
      std::swap(aug[col], aug[pivot]);
      const std::uint64_t piv_inv = gf::inv(aug[col][col]);
      for (std::size_t j = col; j <= n; ++j) aug[col][j] = gf::mul(aug[col][j], piv_inv);
      for (std::size_t r = 0; r < n; ++r) {
        if (r == col || aug[r][col] == 0) continue;
        const std::uint64_t factor = aug[r][col];
        for (std::size_t j = col; j <= n; ++j) {
          aug[r][j] = gf::sub(aug[r][j], gf::mul(factor, aug[col][j]));
        }
      }
    }
    if (singular) continue;  // try a larger d

    Poly P(dp + 1, 0);
    Poly Q(dq + 1, 0);
    for (std::size_t j = 0; j < dp; ++j) P[j] = aug[j][n];
    P[dp] = 1;
    for (std::size_t j = 0; j < dq; ++j) Q[j] = aug[dp + j][n];
    Q[dq] = 1;

    // Verify on the spare points.
    bool ok = true;
    for (std::size_t r = unknowns; r < zs.size() && r < unknowns + 2; ++r) {
      const std::uint64_t lhs = eval(P, zs[r]);
      const std::uint64_t rhs = gf::mul(fs[r], eval(Q, zs[r]));
      if (lhs != rhs) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;

    ReconcileResult result;
    // roots(Q) subset of local: test our own elements.
    for (std::uint64_t b : local) {
      if (eval(Q, b) == 0) result.only_local.push_back(b);
    }
    if (result.only_local.size() != dq) continue;  // inconsistent fit
    // roots(P): unknown to us; factor.
    result.only_remote = find_roots(P, /*rng_seed=*/0x52454Cull ^ remote_count);
    if (result.only_remote.size() != dp) continue;
    std::sort(result.only_local.begin(), result.only_local.end());
    return result;
  }
  return std::nullopt;
}

}  // namespace fatih::validation

#pragma once
// The two-pass polynomial evaluation, kept as the oracle the one-pass
// VecPolynomial kernel is checked against: normalize, form every monomial
// of monomial_basis (a product per monomial), then one dot product per
// statistic, then the clamp. It shares no code with the kernel beyond
// monomial_basis, which defines the basis order, so a kernel that
// regrouped a product or a sum would disagree with it in the last ulp.

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "modeler/polynomial.hpp"

namespace dlap::reference {

/// Unclamped per-statistic values of `p` at `x`.
[[nodiscard]] inline std::array<double, kStatCount> polynomial_sums(
    const VecPolynomial& p, const std::vector<double>& x) {
  const Normalization& norm = p.normalization();
  DLAP_REQUIRE(x.size() == norm.shift.size() && x.size() == norm.scale.size(),
               "reference: normalization dimension mismatch");
  std::vector<double> z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double s = (norm.scale[i] != 0.0) ? norm.scale[i] : 1.0;
    z[i] = (x[i] - norm.shift[i]) / s;
  }
  const std::vector<std::vector<int>> basis =
      monomial_basis(p.dims(), p.degree());
  std::vector<double> phi(basis.size());
  for (std::size_t m = 0; m < basis.size(); ++m) {
    double v = 1.0;
    for (std::size_t d = 0; d < basis[m].size(); ++d) {
      for (int e = 0; e < basis[m][d]; ++e) v *= z[d];
    }
    phi[m] = v;
  }
  std::array<double, kStatCount> sums{};
  for (int s = 0; s < kStatCount; ++s) {
    const auto c = p.coefficients(static_cast<Stat>(s));
    double v = 0.0;
    for (std::size_t m = 0; m < phi.size(); ++m) v += c[m] * phi[m];
    sums[static_cast<std::size_t>(s)] = v;
  }
  return sums;
}

/// VecPolynomial::evaluate's contract: every statistic, clamped at 0.
[[nodiscard]] inline SampleStats evaluate_polynomial(
    const VecPolynomial& p, const std::vector<double>& x) {
  const std::array<double, kStatCount> sums = polynomial_sums(p, x);
  SampleStats out;
  for (int s = 0; s < kStatCount; ++s) {
    out.set(static_cast<Stat>(s),
            std::max(0.0, sums[static_cast<std::size_t>(s)]));
  }
  out.count = 0;
  return out;
}

/// VecPolynomial::evaluate_stat's contract: one statistic, unclamped.
[[nodiscard]] inline double evaluate_polynomial_stat(
    const VecPolynomial& p, Stat s, const std::vector<double>& x) {
  return polynomial_sums(p, x)[static_cast<std::size_t>(s)];
}

}  // namespace dlap::reference

#include "modeler/fit.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "modeler/lstsq.hpp"

namespace dlap {

double relative_error(double estimate, double observed) {
  const double den = std::max(std::abs(observed), 1e-9);
  return std::abs(estimate - observed) / den;
}

namespace {

FitResult fit_polynomial_once(const Region& region,
                              const std::vector<SamplePoint>& samples,
                              int degree) {
  const int dims = region.dims();

  // Normalize inputs to roughly [-1, 1] over the region.
  Normalization norm;
  norm.shift.resize(dims);
  norm.scale.resize(dims);
  for (int d = 0; d < dims; ++d) {
    norm.shift[d] = 0.5 * static_cast<double>(region.lo(d) + region.hi(d));
    norm.scale[d] =
        std::max(0.5 * static_cast<double>(region.extent(d)), 1.0);
  }

  // Design-matrix rows are the monomials polynomial evaluation forms,
  // from the same table in the same product order.
  const std::uint8_t* exps = monomial_exponents(dims, degree).data();
  const index_t ncoef = monomial_count(dims, degree);
  const index_t npts = static_cast<index_t>(samples.size());

  // Shared design matrix; five right-hand sides (one per statistic).
  Matrix a(npts, ncoef);
  Matrix b(npts, kStatCount);
  std::vector<double> xr(dims);
  std::array<double, kMaxDims> z{};
  for (index_t i = 0; i < npts; ++i) {
    for (int d = 0; d < dims; ++d) {
      xr[d] = static_cast<double>(samples[i].x[d]);
    }
    norm.apply_into(xr, z);
    for (index_t m = 0; m < ncoef; ++m) {
      a(i, m) = monomial_value(exps + m * dims, z.data(), dims);
    }
    const auto vals = samples[i].stats.as_array();
    for (int s = 0; s < kStatCount; ++s) b(i, s) = vals[s];
  }

  const LstsqResult sol = lstsq(a.view(), b.view());

  std::vector<std::vector<double>> coeffs(kStatCount);
  for (int s = 0; s < kStatCount; ++s) {
    coeffs[s].resize(ncoef);
    for (index_t m = 0; m < ncoef; ++m) coeffs[s][m] = sol.x(m, s);
  }

  FitResult out;
  out.poly = VecPolynomial(dims, degree, norm, std::move(coeffs));
  out.rank = sol.rank;

  // Accuracy of the median fit across the fitted samples.
  double maxerr = 0.0;
  double sumerr = 0.0;
  for (const SamplePoint& sp : samples) {
    for (int d = 0; d < dims; ++d) xr[d] = static_cast<double>(sp.x[d]);
    const double est = out.poly.evaluate_stat(Stat::Median, xr);
    const double err = relative_error(est, sp.stats.median);
    maxerr = std::max(maxerr, err);
    sumerr += err;
  }
  out.erelmax = maxerr;
  out.mean_rel_error = sumerr / static_cast<double>(npts);
  return out;
}

// True when the fitted median is zero or negative at a sample whose
// observed median is positive -- a nonsense prediction for a runtime.
bool median_fit_degenerate(const FitResult& fit,
                           const std::vector<SamplePoint>& samples) {
  std::vector<double> xr;
  for (const SamplePoint& sp : samples) {
    if (sp.stats.median <= 0.0) continue;
    xr.assign(sp.x.begin(), sp.x.end());
    if (fit.poly.evaluate_stat(Stat::Median, xr) <= 0.0) return true;
  }
  return false;
}

}  // namespace

FitResult fit_polynomial(const Region& region,
                         const std::vector<SamplePoint>& samples,
                         int degree) {
  DLAP_REQUIRE(!samples.empty(), "fit: no samples");
  DLAP_REQUIRE(degree >= 0, "fit: negative degree");

  // High-degree fits of noisy measurements can swing below zero inside
  // the region even though every observation is positive; a model would
  // then predict zero ticks for real work. Fall back to lower degrees
  // until the median fit is positive at every (positive) sample -- the
  // degree-0 fit, the mean of positive medians, always is. The reported
  // erelmax of a fallback fit is typically above the strategies' error
  // bound, so inaccurate regions still get split or rejected as usual.
  FitResult fit = fit_polynomial_once(region, samples, degree);
  for (int d = degree - 1; d >= 0 && median_fit_degenerate(fit, samples);
       --d) {
    fit = fit_polynomial_once(region, samples, d);
  }
  return fit;
}

}  // namespace dlap

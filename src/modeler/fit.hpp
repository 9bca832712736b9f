#pragma once
// Polynomial fitting of sampled performance data (paper Section III-C).
//
// A set of (parameter point, SampleStats) pairs is approximated by a
// vector-valued polynomial via least squares, one statistic at a time on a
// shared design matrix. Model quality is judged by the maximum relative
// error e_relmax of the *median* statistic across the fitted samples,
// exactly the paper's accuracy gate.

#include <vector>

#include "modeler/polynomial.hpp"
#include "modeler/region.hpp"
#include "sampler/stats.hpp"

namespace dlap {

/// One measured parameter point.
struct SamplePoint {
  std::vector<index_t> x;
  SampleStats stats;
};

struct FitResult {
  VecPolynomial poly;
  /// max_i |p(x_i) - v_i| / |v_i| for the median statistic.
  double erelmax = 0.0;
  /// mean_i |p(x_i) - v_i| / |v_i| for the median statistic (reporting).
  double mean_rel_error = 0.0;
  /// Numerical rank of the fit (== basis size when well-posed).
  index_t rank = 0;
};

/// Fits all statistics over the given samples with polynomials of total
/// degree `degree`, normalized to the region (inputs mapped to [-1, 1]).
/// Requires at least one sample, 0 <= degree <= kMaxDegree and a region of
/// at most kMaxDims dimensions; under-determined fits degrade gracefully
/// through rank truncation.
[[nodiscard]] FitResult fit_polynomial(const Region& region,
                                       const std::vector<SamplePoint>& samples,
                                       int degree);

/// Relative-error helper shared with the strategy code: |est-obs|/|obs|
/// with the denominator floored to avoid division by ~0.
[[nodiscard]] double relative_error(double estimate, double observed);

}  // namespace dlap

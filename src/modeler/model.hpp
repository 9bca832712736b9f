#pragma once
// Piecewise performance models (paper Section III-B).
//
// A PiecewiseModel covers a rectangular parameter domain with regions, each
// carrying a vector-valued polynomial. Evaluation: find the region
// containing the query point (when several overlap, the most accurate one
// wins -- the paper's footnote 6), evaluate its polynomial, yielding
// estimates for every statistical quantity.
//
// Region selection runs through a lazily built per-axis interval grid (the
// "region index"): piece boundaries cut every axis into sorted cells, each
// cell precomputing its winning piece, so a lookup is one binary search
// per axis instead of a linear scan over all pieces. The index is built on
// first evaluate() and is semantically invisible -- results are
// bit-identical to the linear most-accurate-containing-region scan.
//
// A point inside some region is evaluated without allocating: the index
// lookup, then VecPolynomial's one-pass kernel over the process-wide
// monomial table of the region's (dims, degree).

#include <atomic>
#include <vector>

#include "modeler/polynomial.hpp"
#include "modeler/region.hpp"
#include "sampler/stats.hpp"

namespace dlap {

struct RegionModel {
  Region region;
  VecPolynomial poly;
  double fit_error = 0.0;       ///< e_relmax of the median fit
  double mean_error = 0.0;      ///< mean relative error of the median fit
  index_t samples_used = 0;     ///< samples that contributed to the fit
};

class PiecewiseModel {
 public:
  PiecewiseModel() = default;
  PiecewiseModel(Region domain, std::vector<RegionModel> pieces);
  PiecewiseModel(const PiecewiseModel& other);
  PiecewiseModel(PiecewiseModel&& other) noexcept;
  PiecewiseModel& operator=(const PiecewiseModel& other);
  PiecewiseModel& operator=(PiecewiseModel&& other) noexcept;
  ~PiecewiseModel();

  [[nodiscard]] const Region& domain() const { return domain_; }
  [[nodiscard]] const std::vector<RegionModel>& pieces() const {
    return pieces_;
  }
  [[nodiscard]] int dims() const { return domain_.dims(); }
  [[nodiscard]] bool empty() const { return pieces_.empty(); }

  /// Estimates all statistics at the given parameter point. Points inside
  /// the domain select the most accurate containing region; points outside
  /// any region (cracks between lattice-aligned regions, or outside the
  /// domain) are projected onto the nearest region before evaluation, so
  /// the model never extrapolates wildly.
  [[nodiscard]] SampleStats evaluate(const std::vector<double>& point) const;
  [[nodiscard]] SampleStats evaluate(const std::vector<index_t>& point) const;

  /// Sample-count-weighted average of the per-region mean relative errors
  /// (the "average error" axis of the paper's Fig III.8).
  [[nodiscard]] double average_error() const;

  /// Sum of per-region sample counts (counts shared samples once per
  /// region; the generator's unique-sample count is reported separately).
  [[nodiscard]] index_t total_samples() const;

 private:
  struct RegionIndex;  // defined in model.cpp

  /// The lazily built index (thread-safe: losers of the build race delete
  /// their copy and use the winner's).
  [[nodiscard]] const RegionIndex& index() const;

  /// Most accurate piece containing `point`, or nullptr when none does
  /// (the caller then projects onto the nearest piece). Consults the
  /// region index for in-grid lattice points and falls back to the
  /// reference linear scan otherwise -- identical results either way.
  [[nodiscard]] const RegionModel* containing_piece(
      const std::vector<double>& point) const;

  /// Reference path: linear most-accurate-containing-region scan.
  [[nodiscard]] const RegionModel* containing_piece_linear(
      const std::vector<double>& point) const;

  /// Projection fallback for uncontained points: nearest piece + clamped
  /// evaluation point.
  [[nodiscard]] SampleStats evaluate_projected(
      const std::vector<double>& point) const;

  Region domain_;
  std::vector<RegionModel> pieces_;
  // Owned index, built on first evaluate. Copies/moves reset it (it holds
  // raw piece indices, cheap to rebuild).
  mutable std::atomic<const RegionIndex*> index_{nullptr};
};

}  // namespace dlap

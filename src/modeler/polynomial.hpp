#pragma once
// Multivariate polynomials over the integer parameter spaces of routine
// arguments (paper Section III-B): each model region carries one
// vector-valued polynomial -- one scalar polynomial per statistical
// quantity, all sharing the same monomial basis and normalization.

#include <span>
#include <vector>

#include "sampler/stats.hpp"
#include "common/types.hpp"

namespace dlap {

/// Exponent tuples of all monomials in `dims` variables with total degree
/// <= degree, in graded-lexicographic order (constant term first). The
/// basis order is part of the serialization contract.
[[nodiscard]] std::vector<std::vector<int>> monomial_basis(int dims,
                                                           int degree);

/// Number of monomials in that basis: binom(dims + degree, degree).
[[nodiscard]] index_t monomial_count(int dims, int degree);

/// Highest polynomial degree the model readers (text files and
/// containers) accept. With at most 8 dimensions this keeps
/// monomial_count at most binom(24, 16) = 735471.
inline constexpr int kMaxDegree = 16;

/// Affine input normalization z_i = (x_i - shift_i) / scale_i applied
/// before monomial evaluation; keeps design matrices well conditioned for
/// parameter values up to thousands.
struct Normalization {
  std::vector<double> shift;
  std::vector<double> scale;

  [[nodiscard]] std::vector<double> apply(
      const std::vector<double>& x) const;

  /// apply() into caller-provided scratch (the hot evaluation path); the
  /// one implementation both share, so fit-time and predict-time
  /// normalization can never drift apart.
  void apply_into(const std::vector<double>& x, std::vector<double>& z) const;
};

/// Scalar polynomial: basis metadata plus one coefficient per monomial.
class Polynomial {
 public:
  Polynomial() = default;
  Polynomial(int dims, int degree, Normalization norm,
             std::vector<double> coeffs);

  [[nodiscard]] int dims() const noexcept { return dims_; }
  [[nodiscard]] int degree() const noexcept { return degree_; }
  [[nodiscard]] const Normalization& normalization() const noexcept {
    return norm_;
  }
  [[nodiscard]] const std::vector<double>& coefficients() const noexcept {
    return coeffs_;
  }

  [[nodiscard]] double evaluate(const std::vector<double>& x) const;

 private:
  int dims_ = 0;
  int degree_ = 0;
  Normalization norm_;
  std::vector<double> coeffs_;
};

/// Vector-valued polynomial: one scalar polynomial per Stat, sharing basis
/// and normalization (stored as a coefficient matrix). The monomial basis
/// is computed once at construction, so evaluation is normalization +
/// basis products + dot products only -- this class sits on the predict
/// hot path.
///
/// The coefficient matrix is one flat row-major [stat][monomial] table of
/// doubles that is either *owned* or *borrowed*: the binary model
/// container (src/storage/) constructs borrowed polynomials whose table
/// points straight into an mmap'ed file, so loading a model performs no
/// coefficient copy or parse at all. Borrowed storage must outlive the
/// polynomial; the storage layer guarantees this by pinning the file
/// mapping in the shared_ptr that owns the loaded model. Copying a
/// borrowed polynomial materializes an owned table (a moved one keeps
/// borrowing), so value copies can never dangle.
class VecPolynomial {
 public:
  VecPolynomial() = default;
  VecPolynomial(int dims, int degree, Normalization norm,
                std::vector<std::vector<double>> coeffs_per_stat);

  /// Non-owning: `table` must point at kStatCount * monomial_count(dims,
  /// degree) doubles, row-major [stat][monomial], 8-byte aligned, alive
  /// for as long as this polynomial (and every move of it) is used.
  struct Borrow {};
  VecPolynomial(int dims, int degree, Normalization norm,
                const double* table, Borrow);

  VecPolynomial(const VecPolynomial& other);
  VecPolynomial(VecPolynomial&& other) noexcept;
  VecPolynomial& operator=(const VecPolynomial& other);
  VecPolynomial& operator=(VecPolynomial&& other) noexcept;
  ~VecPolynomial() = default;

  [[nodiscard]] int dims() const noexcept { return dims_; }
  [[nodiscard]] int degree() const noexcept { return degree_; }
  [[nodiscard]] const Normalization& normalization() const noexcept {
    return norm_;
  }
  [[nodiscard]] std::span<const double> coefficients(Stat s) const {
    return {table_ + static_cast<std::size_t>(s) * ncoef_, ncoef_};
  }
  /// True when the coefficient table lives in this object (false: it is a
  /// view into external storage, e.g. an mmap'ed model container).
  [[nodiscard]] bool owns_coefficients() const noexcept {
    return table_ == nullptr || table_ == owned_.data();
  }

  /// Evaluates every statistic at x. Statistics that must be nonnegative
  /// (all of ours: tick summaries) are clamped at 0.
  [[nodiscard]] SampleStats evaluate(const std::vector<double>& x) const;

  /// Batched evaluation: one SampleStats per point, out[i] bit-identical
  /// to evaluate(*points[i]). The normalization/basis scratch buffers are
  /// allocated once for the whole batch instead of per point.
  void evaluate_many(const std::vector<const std::vector<double>*>& points,
                     std::vector<SampleStats>& out) const;

  /// Evaluates a single statistic (no clamping).
  [[nodiscard]] double evaluate_stat(Stat s,
                                     const std::vector<double>& x) const;

 private:
  /// Shared per-point kernel of evaluate / evaluate_many: z and phi are
  /// caller-provided scratch, resized as needed.
  [[nodiscard]] SampleStats evaluate_into(const std::vector<double>& x,
                                          std::vector<double>& z,
                                          std::vector<double>& phi) const;

  int dims_ = 0;
  int degree_ = 0;
  Normalization norm_;
  std::vector<double> owned_;        // backing store when owning (else empty)
  const double* table_ = nullptr;    // flat [stat][monomial]; owned_ or borrowed
  std::size_t ncoef_ = 0;            // monomials per stat
  std::vector<std::vector<int>> basis_;  // cached monomial exponents
};

/// Evaluates the monomial basis at normalized point z (helper shared by
/// evaluation and design-matrix assembly).
void evaluate_basis(const std::vector<std::vector<int>>& basis,
                    const std::vector<double>& z, std::vector<double>& out);

}  // namespace dlap

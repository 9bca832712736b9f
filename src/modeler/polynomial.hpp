#pragma once
// Multivariate polynomials over the integer parameter spaces of routine
// arguments (paper Section III-B): each model region carries one
// vector-valued polynomial -- one scalar polynomial per statistical
// quantity, all sharing the same monomial basis and normalization.

#include <cstdint>
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
/// containers) accept. With at most kMaxDims dimensions this keeps
/// monomial_count at most binom(24, 16) = 735471.
inline constexpr int kMaxDegree = 16;

/// monomial_basis(dims, degree) as one flat, immutable table: monomial m's
/// exponents are entries [m * dims, (m + 1) * dims). Each (dims <=
/// kMaxDims, degree <= kMaxDegree) table is built once per process, on
/// first use (thread-safe), and lives until exit, so every polynomial of
/// that shape shares it and evaluation reads it without a lock. Throws
/// dlap::invalid_argument_error outside those bounds.
[[nodiscard]] std::span<const std::uint8_t> monomial_exponents(int dims,
                                                               int degree);

/// Affine input normalization z_i = (x_i - shift_i) / scale_i applied
/// before monomial evaluation; keeps design matrices well conditioned for
/// parameter values up to thousands.
struct Normalization {
  std::vector<double> shift;
  std::vector<double> scale;

  /// Writes z for x into caller-provided scratch; throws
  /// dlap::invalid_argument_error when x's length is not the
  /// normalization's or z is shorter than x. The one implementation both
  /// the fit's design matrix and polynomial evaluation use, so fit-time
  /// and predict-time normalization can never drift apart.
  void apply_into(std::span<const double> x, std::span<double> z) const;
};

/// Vector-valued polynomial: one scalar polynomial per Stat, sharing basis
/// and normalization (stored as a coefficient matrix). This class sits on
/// the predict hot path, so evaluation allocates nothing: the point is
/// normalized into fixed-size scratch, and the monomials come from the
/// process-wide monomial_exponents table of the polynomial's (dims,
/// degree), which every copy, move and borrowed view shares.
///
/// One pass over the monomials forms each one exactly as
/// `v = 1.0; for d: for k < e[d]: v *= z[d]` and adds coefficient * value
/// into each statistic's sum in ascending monomial order. That is the
/// same arithmetic, in the same order, as forming all monomials first
/// and then taking one dot product per statistic, so results are
/// bit-identical to that two-pass form (tests/support/
/// reference_polynomial.hpp). Power tables or Horner's rule would regroup
/// the products and move the last ulp, and so would fused multiply-adds.
/// The build sets no -march, so on x86-64 there is no FMA instruction to
/// contract `sum + c * phi` into. GCC does contract it, even in ISO C++
/// mode, under -mfma or -march=native and on targets with FMA such as
/// AArch64; such builds need -ffp-contract=off to keep these results.
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
///
/// A default-constructed or moved-from polynomial has no monomials: it
/// evaluates an empty point to zeros and throws on any other point.
class VecPolynomial {
 public:
  VecPolynomial() = default;
  /// Throws dlap::invalid_argument_error unless 1 <= dims <= kMaxDims,
  /// 0 <= degree <= kMaxDegree, the normalization has dims entries and
  /// each statistic has monomial_count(dims, degree) coefficients.
  VecPolynomial(int dims, int degree, Normalization norm,
                std::vector<std::vector<double>> coeffs_per_stat);

  /// Non-owning: `table` must point at kStatCount * monomial_count(dims,
  /// degree) doubles, row-major [stat][monomial], 8-byte aligned, alive
  /// for as long as this polynomial (and every move of it) is used.
  /// Bounds as for the owning constructor.
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
  /// The shared monomial_exponents table this polynomial evaluates with
  /// (empty when it has no monomials).
  [[nodiscard]] std::span<const std::uint8_t> exponents() const noexcept {
    return {exps_, ncoef_ * static_cast<std::size_t>(dims_)};
  }
  /// True when the coefficient table lives in this object (false: it is a
  /// view into external storage, e.g. an mmap'ed model container).
  [[nodiscard]] bool owns_coefficients() const noexcept {
    return table_ == nullptr || table_ == owned_.data();
  }

  /// Evaluates every statistic at x. Statistics that must be nonnegative
  /// (all of ours: tick summaries) are clamped at 0.
  [[nodiscard]] SampleStats evaluate(const std::vector<double>& x) const;

  /// Evaluates a single statistic (no clamping).
  [[nodiscard]] double evaluate_stat(Stat s,
                                     const std::vector<double>& x) const;

 private:
  int dims_ = 0;
  int degree_ = 0;
  Normalization norm_;
  std::vector<double> owned_;        // backing store when owning (else empty)
  const double* table_ = nullptr;    // flat [stat][monomial]; owned_ or borrowed
  std::size_t ncoef_ = 0;            // monomials per stat
  const std::uint8_t* exps_ = nullptr;  // monomial_exponents(dims_, degree_)
};

/// Monomial value at normalized point z for one row of a
/// monomial_exponents table: the product order every evaluation and the
/// fit's design matrix share.
[[nodiscard]] inline double monomial_value(const std::uint8_t* exponents,
                                           const double* z, int dims) {
  double v = 1.0;
  for (int d = 0; d < dims; ++d) {
    for (int k = 0; k < exponents[d]; ++k) v *= z[d];
  }
  return v;
}

}  // namespace dlap

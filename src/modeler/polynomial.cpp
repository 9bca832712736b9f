#include "modeler/polynomial.hpp"

#include <algorithm>
#include <array>
#include <mutex>

namespace dlap {

namespace {
void gen_exponents(int dims, int remaining_degree, std::vector<int>& cur,
                   std::vector<std::vector<int>>& out) {
  if (static_cast<int>(cur.size()) == dims) {
    out.push_back(cur);
    return;
  }
  for (int e = 0; e <= remaining_degree; ++e) {
    cur.push_back(e);
    gen_exponents(dims, remaining_degree - e, cur, out);
    cur.pop_back();
  }
}

/// One slot per (dims, degree) of monomial_exponents. Slots are created on
/// first use and never destroyed, so a table outlives every polynomial
/// pointing into it, static destructors included.
struct ExponentSlot {
  std::once_flag built;
  std::vector<std::uint8_t> exponents;
};

ExponentSlot& exponent_slot(int dims, int degree) {
  static ExponentSlot* const slots =
      new ExponentSlot[static_cast<std::size_t>(kMaxDims) * (kMaxDegree + 1)];
  return slots[static_cast<std::size_t>(dims - 1) * (kMaxDegree + 1) +
               static_cast<std::size_t>(degree)];
}

void require_shape(int dims, int degree, const Normalization& norm) {
  DLAP_REQUIRE(dims >= 1 && dims <= kMaxDims,
               "polynomial dims outside [1, kMaxDims]");
  DLAP_REQUIRE(degree >= 0 && degree <= kMaxDegree,
               "polynomial degree outside [0, kMaxDegree]");
  DLAP_REQUIRE(norm.shift.size() == static_cast<std::size_t>(dims) &&
                   norm.scale.size() == static_cast<std::size_t>(dims),
               "normalization does not match polynomial dims");
}

}  // namespace

std::vector<std::vector<int>> monomial_basis(int dims, int degree) {
  DLAP_REQUIRE(dims >= 1 && degree >= 0, "bad basis spec");
  std::vector<std::vector<int>> all;
  std::vector<int> cur;
  gen_exponents(dims, degree, cur, all);
  // Graded-lex: sort by total degree, then lexicographically.
  std::stable_sort(all.begin(), all.end(),
                   [](const std::vector<int>& a, const std::vector<int>& b) {
                     int ta = 0, tb = 0;
                     for (int e : a) ta += e;
                     for (int e : b) tb += e;
                     if (ta != tb) return ta < tb;
                     return a < b;
                   });
  return all;
}

index_t monomial_count(int dims, int degree) {
  // binom(dims + degree, degree) by the exact recurrence
  // binom(dims + i, i) = binom(dims + i - 1, i - 1) * (dims + i) / i.
  // The largest intermediate is binom(dims + degree, degree) * degree,
  // far inside index_t for every basis a model reader accepts.
  index_t count = 1;
  for (int i = 1; i <= degree; ++i) count = count * (dims + i) / i;
  return count;
}

std::span<const std::uint8_t> monomial_exponents(int dims, int degree) {
  DLAP_REQUIRE(dims >= 1 && dims <= kMaxDims && degree >= 0 &&
                   degree <= kMaxDegree,
               "monomial table outside 1 <= dims <= kMaxDims, "
               "0 <= degree <= kMaxDegree");
  ExponentSlot& slot = exponent_slot(dims, degree);
  std::call_once(slot.built, [&slot, dims, degree] {
    const std::vector<std::vector<int>> basis = monomial_basis(dims, degree);
    slot.exponents.reserve(basis.size() * static_cast<std::size_t>(dims));
    for (const std::vector<int>& e : basis) {
      slot.exponents.insert(slot.exponents.end(), e.begin(), e.end());
    }
  });
  return slot.exponents;
}

void Normalization::apply_into(std::span<const double> x,
                               std::span<double> z) const {
  DLAP_REQUIRE(x.size() == shift.size() && x.size() == scale.size(),
               "normalization dimension mismatch");
  DLAP_REQUIRE(z.size() >= x.size(), "normalization scratch too small");
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double s = (scale[i] != 0.0) ? scale[i] : 1.0;
    z[i] = (x[i] - shift[i]) / s;
  }
}

VecPolynomial::VecPolynomial(int dims, int degree, Normalization norm,
                             std::vector<std::vector<double>> coeffs_per_stat)
    : dims_(dims), degree_(degree), norm_(std::move(norm)) {
  require_shape(dims_, degree_, norm_);
  exps_ = monomial_exponents(dims_, degree_).data();
  ncoef_ = static_cast<std::size_t>(monomial_count(dims_, degree_));
  DLAP_REQUIRE(coeffs_per_stat.size() == static_cast<std::size_t>(kStatCount),
               "need one coefficient vector per statistic");
  owned_.reserve(static_cast<std::size_t>(kStatCount) * ncoef_);
  for (const auto& c : coeffs_per_stat) {
    DLAP_REQUIRE(c.size() == ncoef_, "coefficient count does not match basis");
    owned_.insert(owned_.end(), c.begin(), c.end());
  }
  table_ = owned_.data();
}

VecPolynomial::VecPolynomial(int dims, int degree, Normalization norm,
                             const double* table, Borrow)
    : dims_(dims), degree_(degree), norm_(std::move(norm)), table_(table) {
  require_shape(dims_, degree_, norm_);
  DLAP_REQUIRE(table != nullptr, "borrowed coefficient table is null");
  exps_ = monomial_exponents(dims_, degree_).data();
  ncoef_ = static_cast<std::size_t>(monomial_count(dims_, degree_));
}

VecPolynomial::VecPolynomial(const VecPolynomial& other)
    : dims_(other.dims_), degree_(other.degree_), norm_(other.norm_),
      ncoef_(other.ncoef_), exps_(other.exps_) {
  // Copies always own: a borrowed table's lifetime contract is tied to
  // the original (whose owner pins the mapping), not to copies handed
  // around by value.
  if (other.table_ != nullptr) {
    owned_.assign(other.table_,
                  other.table_ + static_cast<std::size_t>(kStatCount) * ncoef_);
    table_ = owned_.data();
  }
}

VecPolynomial::VecPolynomial(VecPolynomial&& other) noexcept
    : dims_(other.dims_), degree_(other.degree_), norm_(std::move(other.norm_)),
      owned_(std::move(other.owned_)), table_(other.table_),
      ncoef_(other.ncoef_), exps_(other.exps_) {
  // Moving a vector keeps its heap buffer address, so table_ stays valid
  // for the owned case and still points at the external storage for the
  // borrowed one.
  other.table_ = nullptr;
  other.ncoef_ = 0;
  other.exps_ = nullptr;
}

VecPolynomial& VecPolynomial::operator=(const VecPolynomial& other) {
  if (this != &other) *this = VecPolynomial(other);
  return *this;
}

VecPolynomial& VecPolynomial::operator=(VecPolynomial&& other) noexcept {
  if (this != &other) {
    dims_ = other.dims_;
    degree_ = other.degree_;
    norm_ = std::move(other.norm_);
    owned_ = std::move(other.owned_);
    table_ = other.table_;
    ncoef_ = other.ncoef_;
    exps_ = other.exps_;
    other.table_ = nullptr;
    other.ncoef_ = 0;
    other.exps_ = nullptr;
  }
  return *this;
}

// The evaluation kernel. Normalization's size check bounds x by the
// normalization, which the constructors bound by kMaxDims (and which is
// empty when the polynomial has no monomials), so the scratch never
// overflows; the accumulation order is the two-pass form's, see the
// class comment.
SampleStats VecPolynomial::evaluate(const std::vector<double>& x) const {
  std::array<double, kMaxDims> z{};
  norm_.apply_into(x, z);
  std::array<double, kStatCount> sum{};
  const std::uint8_t* e = exps_;
  for (std::size_t m = 0; m < ncoef_; ++m, e += dims_) {
    const double phi = monomial_value(e, z.data(), dims_);
    for (int s = 0; s < kStatCount; ++s) {
      sum[static_cast<std::size_t>(s)] +=
          table_[static_cast<std::size_t>(s) * ncoef_ + m] * phi;
    }
  }
  SampleStats out;
  for (int s = 0; s < kStatCount; ++s) {
    out.set(static_cast<Stat>(s),
            std::max(0.0, sum[static_cast<std::size_t>(s)]));
  }
  out.count = 0;  // model estimate, not a measurement
  return out;
}

double VecPolynomial::evaluate_stat(Stat s,
                                    const std::vector<double>& x) const {
  std::array<double, kMaxDims> z{};
  norm_.apply_into(x, z);
  const double* c = table_ + static_cast<std::size_t>(s) * ncoef_;
  double v = 0.0;
  const std::uint8_t* e = exps_;
  for (std::size_t m = 0; m < ncoef_; ++m, e += dims_) {
    v += c[m] * monomial_value(e, z.data(), dims_);
  }
  return v;
}

}  // namespace dlap

#include "modeler/polynomial.hpp"

#include <algorithm>
#include <cmath>

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

std::vector<double> Normalization::apply(const std::vector<double>& x) const {
  std::vector<double> z;
  apply_into(x, z);
  return z;
}

void Normalization::apply_into(const std::vector<double>& x,
                               std::vector<double>& z) const {
  DLAP_REQUIRE(x.size() == shift.size() && x.size() == scale.size(),
               "normalization dimension mismatch");
  z.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double s = (scale[i] != 0.0) ? scale[i] : 1.0;
    z[i] = (x[i] - shift[i]) / s;
  }
}

void evaluate_basis(const std::vector<std::vector<int>>& basis,
                    const std::vector<double>& z, std::vector<double>& out) {
  out.resize(basis.size());
  for (std::size_t m = 0; m < basis.size(); ++m) {
    double v = 1.0;
    for (std::size_t d = 0; d < basis[m].size(); ++d) {
      for (int e = 0; e < basis[m][d]; ++e) v *= z[d];
    }
    out[m] = v;
  }
}

Polynomial::Polynomial(int dims, int degree, Normalization norm,
                       std::vector<double> coeffs)
    : dims_(dims), degree_(degree), norm_(std::move(norm)),
      coeffs_(std::move(coeffs)) {
  DLAP_REQUIRE(static_cast<index_t>(coeffs_.size()) ==
                   monomial_count(dims, degree),
               "coefficient count does not match basis");
}

double Polynomial::evaluate(const std::vector<double>& x) const {
  const std::vector<double> z = norm_.apply(x);
  const auto basis = monomial_basis(dims_, degree_);
  std::vector<double> phi;
  evaluate_basis(basis, z, phi);
  double v = 0.0;
  for (std::size_t m = 0; m < phi.size(); ++m) v += coeffs_[m] * phi[m];
  return v;
}

VecPolynomial::VecPolynomial(int dims, int degree, Normalization norm,
                             std::vector<std::vector<double>> coeffs_per_stat)
    : dims_(dims), degree_(degree), norm_(std::move(norm)),
      ncoef_(static_cast<std::size_t>(monomial_count(dims, degree))),
      basis_(monomial_basis(dims, degree)) {
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
    : dims_(dims), degree_(degree), norm_(std::move(norm)), table_(table),
      ncoef_(static_cast<std::size_t>(monomial_count(dims, degree))),
      basis_(monomial_basis(dims, degree)) {
  DLAP_REQUIRE(table != nullptr, "borrowed coefficient table is null");
}

VecPolynomial::VecPolynomial(const VecPolynomial& other)
    : dims_(other.dims_), degree_(other.degree_), norm_(other.norm_),
      ncoef_(other.ncoef_), basis_(other.basis_) {
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
      ncoef_(other.ncoef_), basis_(std::move(other.basis_)) {
  // Moving a vector keeps its heap buffer address, so table_ stays valid
  // for the owned case and still points at the external storage for the
  // borrowed one.
  other.table_ = nullptr;
  other.ncoef_ = 0;
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
    basis_ = std::move(other.basis_);
    other.table_ = nullptr;
    other.ncoef_ = 0;
  }
  return *this;
}

SampleStats VecPolynomial::evaluate_into(const std::vector<double>& x,
                                         std::vector<double>& z,
                                         std::vector<double>& phi) const {
  norm_.apply_into(x, z);
  evaluate_basis(basis_, z, phi);
  SampleStats out;
  for (int s = 0; s < kStatCount; ++s) {
    double v = 0.0;
    const double* c = table_ + static_cast<std::size_t>(s) * ncoef_;
    for (std::size_t m = 0; m < phi.size(); ++m) v += c[m] * phi[m];
    out.set(static_cast<Stat>(s), std::max(0.0, v));
  }
  out.count = 0;  // model estimate, not a measurement
  return out;
}

SampleStats VecPolynomial::evaluate(const std::vector<double>& x) const {
  std::vector<double> z;
  std::vector<double> phi;
  return evaluate_into(x, z, phi);
}

void VecPolynomial::evaluate_many(
    const std::vector<const std::vector<double>*>& points,
    std::vector<SampleStats>& out) const {
  out.resize(points.size());
  std::vector<double> z;
  std::vector<double> phi;
  for (std::size_t i = 0; i < points.size(); ++i) {
    out[i] = evaluate_into(*points[i], z, phi);
  }
}

double VecPolynomial::evaluate_stat(Stat s,
                                    const std::vector<double>& x) const {
  const std::vector<double> z = norm_.apply(x);
  std::vector<double> phi;
  evaluate_basis(basis_, z, phi);
  double v = 0.0;
  const double* c = table_ + static_cast<std::size_t>(s) * ncoef_;
  for (std::size_t m = 0; m < phi.size(); ++m) v += c[m] * phi[m];
  return v;
}

}  // namespace dlap

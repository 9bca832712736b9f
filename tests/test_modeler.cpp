// Tests for the modeling substrate: monomial bases, polynomials, least
// squares, regions, fitting, piecewise models, and repository
// serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <random>
#include <set>
#include <thread>

#include "modeler/fit.hpp"
#include "modeler/lstsq.hpp"
#include "modeler/model.hpp"
#include "modeler/polynomial.hpp"
#include "modeler/region.hpp"
#include "modeler/repository.hpp"
#include "common/matrix_util.hpp"
#include "common/rng.hpp"
#include "reference_codecs.hpp"
#include "reference_polynomial.hpp"

namespace dlap {
namespace {

// ------------------------------------------------------------- monomials

TEST(Monomials, CountMatchesBinomial) {
  EXPECT_EQ(monomial_count(1, 2), 3);   // 1, x, x^2
  EXPECT_EQ(monomial_count(2, 2), 6);
  EXPECT_EQ(monomial_count(3, 2), 10);
  EXPECT_EQ(monomial_count(2, 3), 10);
  EXPECT_EQ(monomial_count(3, 3), 20);
}

TEST(Monomials, CountIsExactAtTheReaderBounds) {
  // binom(24, 16): the largest basis a model reader accepts (8 dims,
  // degree kMaxDegree). The product form overflowed int64 here.
  EXPECT_EQ(monomial_count(8, kMaxDegree), 735471);
  EXPECT_EQ(monomial_count(8, 0), 1);
  for (int dims = 1; dims <= 3; ++dims) {
    for (int degree = 0; degree <= 6; ++degree) {
      EXPECT_EQ(monomial_count(dims, degree),
                static_cast<index_t>(monomial_basis(dims, degree).size()));
    }
  }
}

TEST(Monomials, BasisIsGradedAndComplete) {
  const auto basis = monomial_basis(2, 2);
  ASSERT_EQ(basis.size(), 6u);
  // First entry is the constant term.
  EXPECT_EQ(basis[0], (std::vector<int>{0, 0}));
  // Degrees are non-decreasing.
  int prev = 0;
  for (const auto& m : basis) {
    int deg = 0;
    for (int e : m) deg += e;
    EXPECT_GE(deg, prev);
    prev = deg;
    EXPECT_LE(deg, 2);
  }
}

/// The same coefficients in every statistic row.
std::vector<std::vector<double>> every_stat(std::vector<double> row) {
  return std::vector<std::vector<double>>(kStatCount, std::move(row));
}

/// Every statistic of p at x equals `want` (evaluate and evaluate_stat).
void expect_every_stat(const VecPolynomial& p, const std::vector<double>& x,
                       double want) {
  const SampleStats s = p.evaluate(x);
  for (int k = 0; k < kStatCount; ++k) {
    EXPECT_DOUBLE_EQ(s.get(static_cast<Stat>(k)), want);
    EXPECT_DOUBLE_EQ(p.evaluate_stat(static_cast<Stat>(k), x), want);
  }
}

TEST(VecPolynomial, EvaluatesKnownCoefficients) {
  // p(x) = 1 + 2z + 3z^2 with z = (x - 10) / 5.
  Normalization norm{{10.0}, {5.0}};
  const VecPolynomial p(1, 2, norm, every_stat({1.0, 2.0, 3.0}));
  expect_every_stat(p, {10.0}, 1.0);   // z=0
  expect_every_stat(p, {15.0}, 6.0);   // z=1
  expect_every_stat(p, {5.0}, 2.0);    // z=-1
}

TEST(VecPolynomial, TwoDimensionalCrossTerm) {
  // Basis order for dims=2, degree=2: 1, y, x, y^2, xy, x^2 (graded-lex
  // with exponent vectors (0,0),(0,1),(1,0),(0,2),(1,1),(2,0)).
  Normalization norm{{0.0, 0.0}, {1.0, 1.0}};
  const VecPolynomial p(2, 2, norm, every_stat({0, 0, 0, 0, 1.0, 0}));
  expect_every_stat(p, {3.0, 4.0}, 12.0);
}

TEST(VecPolynomial, CoefficientCountValidated) {
  Normalization norm{{0.0}, {1.0}};
  EXPECT_THROW(VecPolynomial(1, 2, norm, every_stat({1.0, 2.0})),
               invalid_argument_error);
}

TEST(VecPolynomial, RejectsMoreThanKMaxDims) {
  const auto norm = [](int dims) {
    return Normalization{std::vector<double>(dims, 0.0),
                         std::vector<double>(dims, 1.0)};
  };
  const std::vector<double> table(kStatCount, 1.0);  // degree 0: 1 monomial
  EXPECT_NO_THROW(
      VecPolynomial(kMaxDims, 0, norm(kMaxDims), every_stat({1.0})));
  EXPECT_NO_THROW(VecPolynomial(kMaxDims, 0, norm(kMaxDims), table.data(),
                                VecPolynomial::Borrow{}));
  EXPECT_THROW(VecPolynomial(kMaxDims + 1, 0, norm(kMaxDims + 1),
                             every_stat({1.0})),
               invalid_argument_error);
  EXPECT_THROW(VecPolynomial(kMaxDims + 1, 0, norm(kMaxDims + 1),
                             table.data(), VecPolynomial::Borrow{}),
               invalid_argument_error);
  // So are degrees past the readers' bound and a normalization of the
  // wrong length.
  EXPECT_THROW(VecPolynomial(1, kMaxDegree + 1, norm(1),
                             every_stat(std::vector<double>(
                                 static_cast<std::size_t>(
                                     monomial_count(1, kMaxDegree + 1))))),
               invalid_argument_error);
  EXPECT_THROW(VecPolynomial(2, 0, norm(1), every_stat({1.0})),
               invalid_argument_error);
}

TEST(MonomialTable, FlattensMonomialBasisOncePerShape) {
  for (int dims = 1; dims <= kMaxDims; ++dims) {
    for (int degree = 0; degree <= 3; ++degree) {
      const auto table = monomial_exponents(dims, degree);
      std::vector<std::uint8_t> want;
      for (const std::vector<int>& e : monomial_basis(dims, degree)) {
        want.insert(want.end(), e.begin(), e.end());
      }
      EXPECT_EQ(std::vector<std::uint8_t>(table.begin(), table.end()), want);
      EXPECT_EQ(monomial_exponents(dims, degree).data(), table.data());
    }
  }
  EXPECT_THROW((void)monomial_exponents(0, 1), invalid_argument_error);
  EXPECT_THROW((void)monomial_exponents(kMaxDims + 1, 1),
               invalid_argument_error);
  EXPECT_THROW((void)monomial_exponents(1, kMaxDegree + 1),
               invalid_argument_error);
}

/// Bit-for-bit agreement of the kernel with the two-pass reference, for
/// evaluate and for every evaluate_stat.
void expect_matches_reference(const VecPolynomial& p,
                              const std::vector<double>& x) {
  const std::array<double, kStatCount> sums = reference::polynomial_sums(p, x);
  const auto got = p.evaluate(x).as_array();
  const auto want = reference::evaluate_polynomial(p, x).as_array();
  for (int s = 0; s < kStatCount; ++s) {
    const auto k = static_cast<std::size_t>(s);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
              std::bit_cast<std::uint64_t>(want[k]))
        << "evaluate, stat " << s << ": " << got[k] << " vs " << want[k];
    const double one = p.evaluate_stat(static_cast<Stat>(s), x);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(one),
              std::bit_cast<std::uint64_t>(sums[k]))
        << "evaluate_stat, stat " << s << ": " << one << " vs " << sums[k];
  }
  EXPECT_EQ(p.evaluate(x).count, 0);
}

TEST(VecPolynomial, KernelMatchesTwoPassReferenceBitForBit) {
  std::mt19937_64 rng(0x5eed2026u);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (int dims = 1; dims <= kMaxDims; ++dims) {
    const int max_degree = dims <= 2 ? kMaxDegree : 4;
    for (int degree = 0; degree <= max_degree; ++degree) {
      SCOPED_TRACE("dims " + std::to_string(dims) + ", degree " +
                   std::to_string(degree));
      Normalization norm;
      for (int d = 0; d < dims; ++d) {
        norm.shift.push_back(std::round(300.0 * unit(rng)) +
                             (d % 2 == 0 ? 0.0 : 0.25));
        // A scale of 0 normalizes by 1; include one in most shapes.
        norm.scale.push_back((dims + degree + d) % 3 == 0
                                 ? 0.0
                                 : 1.0 + 200.0 * std::abs(unit(rng)));
      }
      const auto ncoef =
          static_cast<std::size_t>(monomial_count(dims, degree));
      std::vector<double> table(kStatCount * ncoef);
      for (double& c : table) {
        c = unit(rng) * std::pow(10.0, static_cast<int>(rng() % 9) - 4);
      }
      std::vector<std::vector<double>> rows(kStatCount);
      for (int s = 0; s < kStatCount; ++s) {
        rows[static_cast<std::size_t>(s)].assign(
            table.begin() + static_cast<std::ptrdiff_t>(s * ncoef),
            table.begin() + static_cast<std::ptrdiff_t>((s + 1) * ncoef));
      }

      const VecPolynomial owned(dims, degree, norm, rows);
      const VecPolynomial borrowed(dims, degree, norm, table.data(),
                                   VecPolynomial::Borrow{});
      const VecPolynomial copied = borrowed;  // owns a copy of the table
      VecPolynomial source = owned;
      const VecPolynomial moved = std::move(source);
      VecPolynomial assigned;
      assigned = borrowed;
      EXPECT_FALSE(borrowed.owns_coefficients());
      EXPECT_TRUE(copied.owns_coefficients());
      const std::array<const VecPolynomial*, 5> all{&owned, &borrowed,
                                                    &copied, &moved,
                                                    &assigned};
      const std::uint8_t* shared = monomial_exponents(dims, degree).data();
      for (const VecPolynomial* p : all) {
        EXPECT_EQ(p->exponents().data(), shared);
      }

      for (int q = 0; q < 12; ++q) {
        std::vector<double> x(static_cast<std::size_t>(dims));
        for (int d = 0; d < dims; ++d) {
          const double near = norm.shift[static_cast<std::size_t>(d)] +
                              std::round(150.0 * unit(rng));
          switch (q % 4) {
            case 0: x[d] = std::round(near); break;           // lattice
            case 1: x[d] = near + 0.37 * unit(rng); break;     // fractional
            case 2: x[d] = -std::round(500.0 * std::abs(unit(rng))); break;
            default: x[d] = near + 1000.0 * unit(rng); break;  // far out
          }
        }
        for (const VecPolynomial* p : all) expect_matches_reference(*p, x);
      }
    }
  }
}

TEST(VecPolynomial, EmptyAndMovedFromEvaluateEmptyPointsToZeros) {
  const auto expect_empty = [](const VecPolynomial& p, int dims) {
    EXPECT_TRUE(p.exponents().empty());
    for (double v : p.evaluate({}).as_array()) EXPECT_EQ(v, 0.0);
    EXPECT_EQ(p.evaluate_stat(Stat::Median, {}), 0.0);
    EXPECT_THROW((void)p.evaluate(std::vector<double>(dims, 1.0)),
                 invalid_argument_error);
    EXPECT_THROW((void)p.evaluate_stat(Stat::Max,
                                       std::vector<double>(dims, 1.0)),
                 invalid_argument_error);
  };
  expect_empty(VecPolynomial(), 1);

  Normalization norm{{1.0, 2.0}, {3.0, 4.0}};
  VecPolynomial constructed_from(2, 3, norm,
                                 every_stat(std::vector<double>(10, 1.5)));
  const VecPolynomial constructed = std::move(constructed_from);
  expect_empty(constructed_from, 2);  // moved-from
  VecPolynomial assigned_from = constructed;
  VecPolynomial assigned;
  assigned = std::move(assigned_from);
  expect_empty(assigned_from, 2);  // moved-from
  expect_matches_reference(assigned, {5.0, 6.0});
}

// 8 threads race on the first use of a (dims, degree) table that no other
// test in this binary touches: each builds a polynomial of that shape
// (owned or borrowed) and evaluates it. All must get the one table, and
// identical results.
TEST(MonomialTable, RacingFirstUsersShareOneTable) {
  constexpr int kDims = 6;
  constexpr int kDegree = 5;
  constexpr int kThreads = 8;
  const auto ncoef = static_cast<std::size_t>(monomial_count(kDims, kDegree));
  std::vector<double> table(kStatCount * ncoef);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = std::sin(static_cast<double>(i)) * 10.0;
  }
  const Normalization norm{std::vector<double>(kDims, 3.0),
                           std::vector<double>(kDims, 2.5)};
  const std::vector<double> x{4.0, 1.0, 7.5, 3.0, 2.0, 5.0};

  std::vector<const std::uint8_t*> seen(kThreads, nullptr);
  std::vector<SampleStats> results(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      std::vector<std::vector<double>> rows(kStatCount);
      for (int s = 0; s < kStatCount; ++s) {
        rows[static_cast<std::size_t>(s)].assign(
            table.begin() + static_cast<std::ptrdiff_t>(s * ncoef),
            table.begin() + static_cast<std::ptrdiff_t>((s + 1) * ncoef));
      }
      const VecPolynomial p =
          i % 2 == 0 ? VecPolynomial(kDims, kDegree, norm, std::move(rows))
                     : VecPolynomial(kDims, kDegree, norm, table.data(),
                                     VecPolynomial::Borrow{});
      seen[static_cast<std::size_t>(i)] = p.exponents().data();
      results[static_cast<std::size_t>(i)] = p.evaluate(x);
    });
  }
  for (std::thread& thread : threads) thread.join();

  const VecPolynomial p(kDims, kDegree, norm, table.data(),
                        VecPolynomial::Borrow{});
  const auto want = reference::evaluate_polynomial(p, x).as_array();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)],
              monomial_exponents(kDims, kDegree).data());
    const auto got = results[static_cast<std::size_t>(i)].as_array();
    for (std::size_t s = 0; s < got.size(); ++s) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[s]),
                std::bit_cast<std::uint64_t>(want[s]));
    }
  }
}

TEST(VecPolynomial, ClampsNegativeEstimatesToZero) {
  Normalization norm{{0.0}, {1.0}};
  std::vector<std::vector<double>> coeffs(kStatCount,
                                          std::vector<double>{-5.0});
  VecPolynomial vp(1, 0, norm, coeffs);
  const SampleStats s = vp.evaluate({1.0});
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.median, 0.0);
  // evaluate_stat is unclamped.
  EXPECT_DOUBLE_EQ(vp.evaluate_stat(Stat::Median, {1.0}), -5.0);
}

// ------------------------------------------------------------------ lstsq

TEST(Lstsq, SolvesExactSquareSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  Matrix b(2, 1);
  b(0, 0) = 5.0;
  b(1, 0) = 10.0;
  const LstsqResult r = lstsq(a.view(), b.view());
  EXPECT_EQ(r.rank, 2);
  EXPECT_NEAR(r.x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(r.x(1, 0), 3.0, 1e-12);
}

TEST(Lstsq, OverdeterminedConsistentSystemIsExact) {
  // y = 3 + 2x sampled at 5 points: quadratic-free exact recovery.
  Matrix a(5, 2);
  Matrix b(5, 1);
  for (index_t i = 0; i < 5; ++i) {
    const double x = static_cast<double>(i);
    a(i, 0) = 1.0;
    a(i, 1) = x;
    b(i, 0) = 3.0 + 2.0 * x;
  }
  const LstsqResult r = lstsq(a.view(), b.view());
  EXPECT_NEAR(r.x(0, 0), 3.0, 1e-12);
  EXPECT_NEAR(r.x(1, 0), 2.0, 1e-12);
}

TEST(Lstsq, MinimizesResidualNorm) {
  // Inconsistent system: solution must satisfy the normal equations
  // (residual orthogonal to the column space).
  Rng rng(3);
  Matrix a(20, 4);
  Matrix b(20, 1);
  fill_uniform(a.view(), rng);
  fill_uniform(b.view(), rng);
  const LstsqResult r = lstsq(a.view(), b.view());
  // res = b - A x; check A^T res ~ 0.
  std::vector<double> res(20);
  for (index_t i = 0; i < 20; ++i) {
    double s = b(i, 0);
    for (index_t j = 0; j < 4; ++j) s -= a(i, j) * r.x(j, 0);
    res[i] = s;
  }
  for (index_t j = 0; j < 4; ++j) {
    double dot = 0.0;
    for (index_t i = 0; i < 20; ++i) dot += a(i, j) * res[i];
    EXPECT_NEAR(dot, 0.0, 1e-10);
  }
}

TEST(Lstsq, RankDeficientSystemYieldsFiniteBasicSolution) {
  // Two identical columns: rank 1.
  Matrix a(4, 2);
  Matrix b(4, 1);
  for (index_t i = 0; i < 4; ++i) {
    a(i, 0) = a(i, 1) = static_cast<double>(i + 1);
    b(i, 0) = 2.0 * static_cast<double>(i + 1);
  }
  const LstsqResult r = lstsq(a.view(), b.view());
  EXPECT_EQ(r.rank, 1);
  // Fitted values must still reproduce b.
  for (index_t i = 0; i < 4; ++i) {
    const double fit = a(i, 0) * r.x(0, 0) + a(i, 1) * r.x(1, 0);
    EXPECT_NEAR(fit, b(i, 0), 1e-10);
  }
}

TEST(Lstsq, MultipleRightHandSidesShareFactorization) {
  Matrix a(6, 3);
  Matrix b(6, 2);
  Rng rng(9);
  fill_uniform(a.view(), rng);
  // b columns = known combinations of a's columns.
  for (index_t i = 0; i < 6; ++i) {
    b(i, 0) = a(i, 0) + 2.0 * a(i, 2);
    b(i, 1) = -a(i, 1);
  }
  const LstsqResult r = lstsq(a.view(), b.view());
  EXPECT_NEAR(r.x(0, 0), 1.0, 1e-10);
  EXPECT_NEAR(r.x(1, 0), 0.0, 1e-10);
  EXPECT_NEAR(r.x(2, 0), 2.0, 1e-10);
  EXPECT_NEAR(r.x(1, 1), -1.0, 1e-10);
}

TEST(Lstsq, RejectsMismatchedShapes) {
  Matrix a(4, 2), b(3, 1);
  EXPECT_THROW(lstsq(a.view(), b.view()), invalid_argument_error);
}

TEST(SingularValues, DiagonalMatrix) {
  Matrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = 1.0;
  a(2, 2) = 2.0;
  const auto sv = singular_values(a.view());
  ASSERT_EQ(sv.size(), 3u);
  EXPECT_NEAR(sv[0], 3.0, 1e-10);
  EXPECT_NEAR(sv[1], 2.0, 1e-10);
  EXPECT_NEAR(sv[2], 1.0, 1e-10);
}

TEST(SingularValues, WideMatrixHandled) {
  Matrix a(2, 5);
  Rng rng(4);
  fill_uniform(a.view(), rng);
  const auto sv = singular_values(a.view());
  EXPECT_EQ(sv.size(), 2u);
  EXPECT_GE(sv[0], sv[1]);
  // Frobenius norm identity: sum sv^2 == ||A||_F^2.
  double fro2 = 0.0;
  for (index_t j = 0; j < 5; ++j)
    for (index_t i = 0; i < 2; ++i) fro2 += a(i, j) * a(i, j);
  EXPECT_NEAR(sv[0] * sv[0] + sv[1] * sv[1], fro2, 1e-10);
}

// ----------------------------------------------------------------- region

TEST(Region, ContainsAndIntersects) {
  const Region r({8, 8}, {64, 128});
  EXPECT_TRUE(r.contains(std::vector<index_t>{8, 8}));
  EXPECT_TRUE(r.contains(std::vector<index_t>{64, 128}));
  EXPECT_FALSE(r.contains(std::vector<index_t>{65, 8}));
  EXPECT_TRUE(r.intersects(Region({64, 100}, {200, 200})));
  EXPECT_FALSE(r.intersects(Region({65, 129}, {200, 200})));
}

TEST(Region, RejectsInvertedBounds) {
  EXPECT_THROW(Region({10}, {5}), invalid_argument_error);
}

TEST(Region, SnapToGrid) {
  EXPECT_EQ(snap_to_grid(13, 8, 8, 64), 16);
  EXPECT_EQ(snap_to_grid(11, 8, 8, 64), 8);
  EXPECT_EQ(snap_to_grid(100, 8, 8, 64), 64);  // clamped
  EXPECT_EQ(snap_to_grid(0, 8, 8, 64), 8);     // clamped
}

TEST(Region, SplitProducesDisjointCoveringChildren) {
  const Region r({8, 8}, {136, 136});
  const auto children = r.split(/*min_size=*/32, /*granularity=*/8);
  ASSERT_EQ(children.size(), 4u);
  // Children share midlines; all lie within the parent.
  for (const Region& c : children) {
    EXPECT_GE(c.lo(0), r.lo(0));
    EXPECT_LE(c.hi(1), r.hi(1));
  }
}

TEST(Region, SplitRespectsMinSize) {
  const Region r({8}, {40});  // extent 32 < 2*32
  const auto children = r.split(32, 8);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0], r);
}

TEST(Region, SplitPartialDimensions) {
  // Only the wide dimension is split.
  const Region r({8, 8}, {264, 40});
  const auto children = r.split(32, 8);
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0].hi(1), 40);
  EXPECT_EQ(children[1].hi(1), 40);
}

TEST(Region, SampleGridEndpointsAndGranularity) {
  const Region r({8}, {64});
  const auto grid = r.sample_grid(4, 8);
  ASSERT_GE(grid.size(), 2u);
  EXPECT_EQ(grid.front()[0], 8);
  EXPECT_EQ(grid.back()[0], 64);
  for (const auto& p : grid) EXPECT_EQ(p[0] % 8, 0);
}

TEST(Region, SampleGridCartesianProduct) {
  const Region r({8, 8}, {64, 64});
  const auto grid = r.sample_grid(3, 8);
  EXPECT_EQ(grid.size(), 9u);
}

TEST(Region, SampleGridDegenerateDimension) {
  // A region that is a single lattice point wide still yields samples.
  const Region r({16, 8}, {16, 64});
  const auto grid = r.sample_grid(3, 8);
  for (const auto& p : grid) EXPECT_EQ(p[0], 16);
  EXPECT_GE(grid.size(), 2u);
}

TEST(Region, DistanceIsChebyshevOutside) {
  const Region r({0, 0}, {10, 10});
  EXPECT_EQ(r.distance({5.0, 5.0}), 0.0);
  EXPECT_EQ(r.distance({15.0, 5.0}), 5.0);
  EXPECT_EQ(r.distance({-2.0, 13.0}), 3.0);
}

// -------------------------------------------------------------------- fit

std::vector<SamplePoint> sample_function(
    const Region& region, index_t step,
    const std::function<double(const std::vector<index_t>&)>& f) {
  std::vector<SamplePoint> out;
  std::vector<index_t> p(static_cast<std::size_t>(region.dims()));
  // 1-D / 2-D helper sufficient for these tests.
  if (region.dims() == 1) {
    for (index_t x = region.lo(0); x <= region.hi(0); x += step) {
      SampleStats s;
      const double v = f({x});
      s.min = s.median = s.mean = s.max = v;
      out.push_back({{x}, s});
    }
  } else {
    for (index_t x = region.lo(0); x <= region.hi(0); x += step) {
      for (index_t y = region.lo(1); y <= region.hi(1); y += step) {
        SampleStats s;
        const double v = f({x, y});
        s.min = s.median = s.mean = s.max = v;
        out.push_back({{x, y}, s});
      }
    }
  }
  return out;
}

TEST(Fit, RecoversExactQuadratic) {
  const Region r({8}, {128});
  const auto samples = sample_function(r, 8, [](const auto& p) {
    const double x = static_cast<double>(p[0]);
    return 100.0 + 3.0 * x + 0.25 * x * x;
  });
  const FitResult fit = fit_polynomial(r, samples, 2);
  EXPECT_LT(fit.erelmax, 1e-10);
  EXPECT_LT(fit.mean_rel_error, 1e-10);
  EXPECT_NEAR(fit.poly.evaluate_stat(Stat::Median, {100.0}),
              100.0 + 300.0 + 2500.0, 1e-6);
}

TEST(Fit, UnderResolvedCubicHasError) {
  const Region r({8}, {256});
  const auto samples = sample_function(r, 8, [](const auto& p) {
    const double x = static_cast<double>(p[0]);
    return x * x * x;
  });
  const FitResult quad = fit_polynomial(r, samples, 2);
  const FitResult cube = fit_polynomial(r, samples, 3);
  EXPECT_GT(quad.erelmax, 0.01);   // quadratic can't represent x^3
  EXPECT_LT(cube.erelmax, 1e-9);
}

TEST(Fit, TwoDimensionalMixedTerm) {
  const Region r({8, 8}, {64, 64});
  const auto samples = sample_function(r, 8, [](const auto& p) {
    return 5.0 + static_cast<double>(p[0] * p[1]);
  });
  const FitResult fit = fit_polynomial(r, samples, 2);
  EXPECT_LT(fit.erelmax, 1e-10);
}

TEST(Fit, FitsAllStatisticsIndependently) {
  const Region r({8}, {64});
  std::vector<SamplePoint> samples;
  for (index_t x = 8; x <= 64; x += 8) {
    SampleStats s;
    s.min = static_cast<double>(x);
    s.median = static_cast<double>(2 * x);
    s.mean = static_cast<double>(3 * x);
    s.max = static_cast<double>(4 * x);
    s.stddev = 1.0;
    samples.push_back({{x}, s});
  }
  const FitResult fit = fit_polynomial(r, samples, 1);
  EXPECT_NEAR(fit.poly.evaluate_stat(Stat::Min, {32.0}), 32.0, 1e-9);
  EXPECT_NEAR(fit.poly.evaluate_stat(Stat::Median, {32.0}), 64.0, 1e-9);
  EXPECT_NEAR(fit.poly.evaluate_stat(Stat::Mean, {32.0}), 96.0, 1e-9);
  EXPECT_NEAR(fit.poly.evaluate_stat(Stat::Max, {32.0}), 128.0, 1e-9);
  EXPECT_NEAR(fit.poly.evaluate_stat(Stat::Stddev, {32.0}), 1.0, 1e-9);
}

TEST(Fit, SingleSampleDegradesGracefully) {
  const Region r({8}, {8});
  std::vector<SamplePoint> samples;
  SampleStats s;
  s.min = s.median = s.mean = s.max = 42.0;
  samples.push_back({{8}, s});
  const FitResult fit = fit_polynomial(r, samples, 2);
  EXPECT_NEAR(fit.poly.evaluate_stat(Stat::Median, {8.0}), 42.0, 1e-9);
}

TEST(Fit, RelativeErrorGuardsAgainstZeroDenominator) {
  EXPECT_DOUBLE_EQ(relative_error(1.0, 2.0), 0.5);
  EXPECT_GT(relative_error(1.0, 0.0), 1e6);
}

// -------------------------------------------------------- piecewise model

RegionModel make_constant_piece(Region region, double value, double err) {
  Normalization norm;
  norm.shift.assign(static_cast<std::size_t>(region.dims()), 0.0);
  norm.scale.assign(static_cast<std::size_t>(region.dims()), 1.0);
  std::vector<std::vector<double>> coeffs(kStatCount,
                                          std::vector<double>{value});
  RegionModel piece;
  piece.region = std::move(region);
  piece.poly = VecPolynomial(piece.region.dims(), 0, norm, coeffs);
  piece.fit_error = err;
  piece.mean_error = err;
  piece.samples_used = 10;
  return piece;
}

TEST(PiecewiseModel, SelectsContainingRegion) {
  std::vector<RegionModel> pieces;
  pieces.push_back(make_constant_piece(Region({0}, {10}), 1.0, 0.01));
  pieces.push_back(make_constant_piece(Region({11}, {20}), 2.0, 0.01));
  const PiecewiseModel m(Region({0}, {20}), std::move(pieces));
  EXPECT_DOUBLE_EQ(m.evaluate(std::vector<index_t>{5}).median, 1.0);
  EXPECT_DOUBLE_EQ(m.evaluate(std::vector<index_t>{15}).median, 2.0);
}

TEST(PiecewiseModel, OverlapResolvedByAccuracy) {
  // Paper footnote 6: the most accurate overlapping region wins.
  std::vector<RegionModel> pieces;
  pieces.push_back(make_constant_piece(Region({0}, {20}), 1.0, 0.10));
  pieces.push_back(make_constant_piece(Region({5}, {15}), 2.0, 0.01));
  const PiecewiseModel m(Region({0}, {20}), std::move(pieces));
  EXPECT_DOUBLE_EQ(m.evaluate(std::vector<index_t>{10}).median, 2.0);
  EXPECT_DOUBLE_EQ(m.evaluate(std::vector<index_t>{2}).median, 1.0);
}

TEST(PiecewiseModel, OutOfDomainClampsToNearestRegion) {
  std::vector<RegionModel> pieces;
  pieces.push_back(make_constant_piece(Region({8}, {64}), 3.0, 0.01));
  const PiecewiseModel m(Region({8}, {64}), std::move(pieces));
  EXPECT_DOUBLE_EQ(m.evaluate(std::vector<index_t>{4}).median, 3.0);
  EXPECT_DOUBLE_EQ(m.evaluate(std::vector<index_t>{100}).median, 3.0);
}

TEST(PiecewiseModel, AverageErrorIsSampleWeighted) {
  std::vector<RegionModel> pieces;
  RegionModel a = make_constant_piece(Region({0}, {10}), 1.0, 0.0);
  a.mean_error = 0.1;
  a.samples_used = 10;
  RegionModel b = make_constant_piece(Region({11}, {20}), 1.0, 0.0);
  b.mean_error = 0.2;
  b.samples_used = 30;
  pieces.push_back(a);
  pieces.push_back(b);
  const PiecewiseModel m(Region({0}, {20}), std::move(pieces));
  EXPECT_NEAR(m.average_error(), (0.1 * 10 + 0.2 * 30) / 40.0, 1e-12);
  EXPECT_EQ(m.total_samples(), 40);
}

TEST(PiecewiseModel, EmptyModelRejected) {
  EXPECT_THROW(PiecewiseModel(Region({0}, {1}), {}), invalid_argument_error);
}

// ------------------------------------------------------------- repository

RoutineModel make_test_model() {
  std::vector<RegionModel> pieces;
  pieces.push_back(make_constant_piece(Region({8, 8}, {64, 64}), 5.5, 0.02));
  pieces.push_back(
      make_constant_piece(Region({8, 72}, {64, 128}), 7.25, 0.04));
  RoutineModel m;
  m.key = {"dtrsm", "blocked", Locality::InCache, "LLNN"};
  m.model = PiecewiseModel(Region({8, 8}, {64, 128}), std::move(pieces));
  m.unique_samples = 123;
  m.average_error = 0.03;
  m.strategy = "refinement";
  return m;
}

TEST(Repository, SerializeDeserializeRoundTrip) {
  const RoutineModel m = make_test_model();
  const std::string text = ModelRepository::serialize(m);
  const RoutineModel back = ModelRepository::deserialize(text);
  EXPECT_EQ(back.key, m.key);
  EXPECT_EQ(back.unique_samples, 123);
  EXPECT_EQ(back.strategy, "refinement");
  ASSERT_EQ(back.model.pieces().size(), 2u);
  // Evaluations agree everywhere.
  for (index_t x = 8; x <= 64; x += 8) {
    for (index_t y = 8; y <= 128; y += 8) {
      const std::vector<index_t> p{x, y};
      EXPECT_DOUBLE_EQ(back.model.evaluate(p).median,
                       m.model.evaluate(p).median);
    }
  }
}

TEST(Repository, StoreLoadListContains) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "dlaperf_test_repo_slc";
  std::filesystem::remove_all(dir);
  ModelRepository repo(dir);
  const RoutineModel m = make_test_model();
  EXPECT_FALSE(repo.contains(m.key));
  repo.store(m);
  EXPECT_TRUE(repo.contains(m.key));
  const RoutineModel back = repo.load(m.key);
  EXPECT_EQ(back.key, m.key);
  const auto keys = repo.list();
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], m.key);
  std::filesystem::remove_all(dir);
}

TEST(Repository, MissingModelThrowsLookupError) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "dlaperf_test_repo_missing";
  std::filesystem::remove_all(dir);
  ModelRepository repo(dir);
  EXPECT_THROW(repo.load({"dtrsm", "blocked", Locality::InCache, "LLNN"}),
               lookup_error);
  std::filesystem::remove_all(dir);
}

TEST(Repository, CorruptedFileThrowsParseError) {
  EXPECT_THROW(ModelRepository::deserialize("not a model"), parse_error);
  // Truncated file.
  const std::string text = ModelRepository::serialize(make_test_model());
  EXPECT_THROW(ModelRepository::deserialize(text.substr(0, text.size() / 2)),
               parse_error);
}

// A random model whose every number stresses the %.17g writer.
RoutineModel stress_model(std::mt19937_64& rng) {
  const int dims = 1 + static_cast<int>(rng() % 3);
  const auto region = [&] {
    std::vector<index_t> lo(dims), hi(dims);
    for (int d = 0; d < dims; ++d) {
      lo[d] = -static_cast<index_t>(rng() % 5000);
      hi[d] = lo[d] + static_cast<index_t>(rng() % 100000);
    }
    return Region(lo, hi);
  };
  std::vector<RegionModel> pieces(1 + rng() % 3);
  for (RegionModel& piece : pieces) {
    const int degree = static_cast<int>(rng() % 4);
    Normalization norm;
    for (int d = 0; d < dims; ++d) {
      norm.shift.push_back(reference::stress_double(rng));
      norm.scale.push_back(reference::stress_double(rng));
    }
    std::vector<std::vector<double>> coeffs(kStatCount);
    for (auto& c : coeffs) {
      c.resize(static_cast<std::size_t>(monomial_count(dims, degree)));
      for (double& x : c) x = reference::stress_double(rng);
    }
    piece.region = region();
    piece.poly = VecPolynomial(dims, degree, norm, coeffs);
    piece.fit_error = reference::stress_double(rng);
    piece.mean_error = reference::stress_double(rng);
    piece.samples_used = reference::stress_index(rng);
  }
  RoutineModel m;
  m.key = {"dgemm", "blocked", Locality::OutOfCache, rng() % 2 ? "NT" : ""};
  m.model = PiecewiseModel(region(), std::move(pieces));
  m.unique_samples = reference::stress_index(rng);
  m.average_error = reference::stress_double(rng);
  m.strategy = rng() % 2 ? "refinement" : "";
  return m;
}

TEST(Repository, SerializeMatchesIostreamOracleAndParsesBitExactly) {
  std::mt19937_64 rng(0x0de10016u);
  for (int n = 0; n < 300; ++n) {
    const RoutineModel m = stress_model(rng);
    const std::string text = ModelRepository::serialize(m);
    ASSERT_EQ(text, reference::serialize_model(m));
    const RoutineModel back = ModelRepository::deserialize(text);
    // Every number parsed back to the same bits, so the text is stable.
    EXPECT_EQ(ModelRepository::serialize(back), text);
    ASSERT_EQ(back.model.pieces().size(), m.model.pieces().size());
    for (std::size_t p = 0; p < m.model.pieces().size(); ++p) {
      const VecPolynomial& a = m.model.pieces()[p].poly;
      const VecPolynomial& b = back.model.pieces()[p].poly;
      for (int s = 0; s < kStatCount; ++s) {
        const auto ca = a.coefficients(static_cast<Stat>(s));
        const auto cb = b.coefficients(static_cast<Stat>(s));
        ASSERT_EQ(ca.size(), cb.size());
        for (std::size_t i = 0; i < ca.size(); ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(ca[i]),
                    std::bit_cast<std::uint64_t>(cb[i]));
        }
      }
    }
  }
}

// Counts in model text are bounded before they size anything: an absurd
// degree or piece count is a parse_error naming the file and line, not
// an overflow or a huge allocation.
TEST(Repository, ImplausibleCountsAreParseErrorsNamingTheLine) {
  const std::string text = ModelRepository::serialize(make_test_model());
  const auto replaced = [&](const std::string& from, const std::string& to) {
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    std::string out = text;
    out.replace(at, from.size(), to);
    return out;
  };
  const auto line_of = [&](const std::string& needle) {
    const std::size_t at = text.find(needle);
    return 1 + std::count(text.begin(), text.begin() + at, '\n');
  };
  struct Case {
    std::string from, to;
  };
  for (const Case& c : {Case{"  degree 0", "  degree 40"},
                        Case{"  degree 0", "  degree -1"},
                        Case{"  degree 0", "  degree 4294967296"},
                        Case{"pieces 2", "pieces 100000000000"},
                        Case{"pieces 2", "pieces 3"},
                        Case{"dims 2", "dims 4294967298"}}) {
    try {
      (void)ModelRepository::deserialize(replaced(c.from, c.to), "m.model");
      ADD_FAILURE() << c.to << " was accepted";
    } catch (const parse_error& e) {
      const std::string what = e.what();
      if (c.to != "pieces 3") {  // runs out of text further down instead
        EXPECT_NE(what.find("m.model:" + std::to_string(line_of(c.from)) + ":"),
                  std::string::npos)
            << what;
      }
    }
  }
}

// The text reader accepts kMaxDims dimensions and rejects one more: the
// same model text widened by one coordinate is a parse error naming the
// dims line.
TEST(Repository, ModelTextRejectsMoreThanKMaxDims) {
  const std::vector<index_t> lo(kMaxDims, 1), hi(kMaxDims, 4);
  std::vector<RegionModel> pieces;
  pieces.push_back(make_constant_piece(Region(lo, hi), 2.5, 0.01));
  RoutineModel m;
  m.key = {"dgemm", "blocked", Locality::InCache, "NN"};
  m.model = PiecewiseModel(Region(lo, hi), std::move(pieces));
  const std::string text = ModelRepository::serialize(m);
  EXPECT_EQ(ModelRepository::deserialize(text).model.dims(), kMaxDims);

  std::string wide;
  std::size_t dims_line = 0;
  std::size_t lineno = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++lineno;
    const auto starts = [&](const char* prefix) {
      return line.rfind(prefix, 0) == 0;
    };
    if (starts("dims ")) {
      line = "dims " + std::to_string(kMaxDims + 1);
      dims_line = lineno;
    } else if (starts("domain") || starts("  bounds")) {
      line += " 1 4";
    } else if (starts("  shift")) {
      line += " 0";
    } else if (starts("  scale")) {
      line += " 1";
    }
    wide += line + "\n";
  }
  ASSERT_NE(dims_line, 0u);
  try {
    (void)ModelRepository::deserialize(wide, "m.model");
    ADD_FAILURE() << "a model of kMaxDims + 1 dims was accepted";
  } catch (const parse_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("m.model:" + std::to_string(dims_line) + ":"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("implausible dims"), std::string::npos) << what;
  }
}

TEST(Fit, FallsBackToLowerDegreeWhenMedianFitGoesNegative) {
  // Least-squares cubics of sharply decaying positive data undershoot
  // into negative territory near the tail. A performance model must
  // never predict <= 0 ticks at a measured point, so fit_polynomial
  // falls back to lower degrees until the median fit is positive at
  // every sample.
  const Region r({0}, {70});
  const auto samples =
      sample_function(r, 10, [](const std::vector<index_t>& x) {
        return 1e6 * std::exp(-0.35 * static_cast<double>(x[0]));
      });
  const FitResult fit = fit_polynomial(r, samples, 3);
  EXPECT_LT(fit.poly.degree(), 3);  // the cubic itself is degenerate
  for (const SamplePoint& sp : samples) {
    EXPECT_GT(fit.poly.evaluate_stat(
                  Stat::Median, {static_cast<double>(sp.x[0])}),
              0.0)
        << "at x = " << sp.x[0];
  }
}

TEST(Repository, FilenameEncodesKeyAndIsStable) {
  ModelKey key{"dtrsm", "blocked@8", Locality::OutOfCache, "LLNN"};
  EXPECT_EQ(ModelRepository::filename(key),
            "dtrsm.blocked-t8.out_of_cache.LLNN.model");
  ModelKey noflags{"sylv_unb", "naive", Locality::InCache, ""};
  EXPECT_EQ(ModelRepository::filename(noflags),
            "sylv_unb.naive.in_cache.-.model");
}

TEST(Repository, FilenamesOfDistinctKeysNeverCollide) {
  // The seed mapped '@' to 't', so "packed@8" collided with a backend
  // literally named "packedt8"; path-hostile flag strings collided with
  // their sanitized twins. The escaped scheme keeps every key distinct.
  const std::vector<ModelKey> keys{
      {"dtrsm", "packed@8", Locality::InCache, "LLNN"},
      {"dtrsm", "packedt8", Locality::InCache, "LLNN"},
      {"dtrsm", "packed-t8", Locality::InCache, "LLNN"},
      {"dtrsm", "blocked", Locality::InCache, "L/NN"},
      {"dtrsm", "blocked", Locality::InCache, "L-x2fNN"},
      {"dtrsm", "blocked", Locality::InCache, "L.NN"},
      {"dtrsm", "blocked", Locality::InCache, "L NN"},
      {"dtrsm", "blocked", Locality::InCache, ".."},
      {"dtrsm", "blocked", Locality::OutOfCache, "LLNN"},
      {"dtrsm", "blocked", Locality::InCache, ""},
      {"dtrsm", "blocked", Locality::InCache, "noflags"},
      {"dtrsm", "blocked", Locality::InCache, "-"},
  };
  std::set<std::string> names;
  for (const ModelKey& k : keys) {
    const std::string name = ModelRepository::filename(k);
    EXPECT_TRUE(names.insert(name).second)
        << "collision on " << name << " for key " << k.to_string();
    // Path-hostile characters never leak into the file name.
    EXPECT_EQ(name.find('/'), std::string::npos) << name;
    EXPECT_EQ(name.find(' '), std::string::npos) << name;
  }
}

TEST(ModelKey, OrderingConsistentWithEquality) {
  // operator< must order exactly the keys operator== distinguishes, over
  // every field (routine, backend, locality, flags).
  const std::vector<ModelKey> keys{
      {"dgemm", "blocked", Locality::InCache, "NN"},
      {"dtrsm", "blocked", Locality::InCache, "LLNN"},
      {"dtrsm", "blocked", Locality::InCache, "RLNN"},
      {"dtrsm", "blocked", Locality::OutOfCache, "LLNN"},
      {"dtrsm", "packed", Locality::InCache, "LLNN"},
  };
  for (const ModelKey& a : keys) {
    for (const ModelKey& b : keys) {
      EXPECT_EQ(a == b, !(a < b) && !(b < a))
          << a.to_string() << " vs " << b.to_string();
      EXPECT_FALSE((a < b) && (b < a));
    }
  }
}

}  // namespace
}  // namespace dlap

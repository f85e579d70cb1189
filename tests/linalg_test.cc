#include "src/util/linalg.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>

#include <gtest/gtest.h>

namespace longstore {
namespace {

TEST(MatrixTest, IdentityAndAccess) {
  Matrix m = Matrix::Identity(3);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(m.At(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, MultiplyKnownProduct) {
  Matrix a(2, 3);
  // a = [1 2 3; 4 5 6]
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(0, 2) = 3;
  a.At(1, 0) = 4;
  a.At(1, 1) = 5;
  a.At(1, 2) = 6;
  Matrix b(3, 2);
  // b = [7 8; 9 10; 11 12]
  b.At(0, 0) = 7;
  b.At(0, 1) = 8;
  b.At(1, 0) = 9;
  b.At(1, 1) = 10;
  b.At(2, 0) = 11;
  b.At(2, 1) = 12;
  const Matrix p = a * b;
  EXPECT_DOUBLE_EQ(p.At(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(p.At(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(p.At(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(p.At(1, 1), 154.0);
}

TEST(MatrixTest, MultiplyDimensionMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 2);
  EXPECT_THROW(a * b, std::invalid_argument);
}

// The product's contract (src/util/linalg.h): element (r, c) is 0.0 plus
// a(r, k) * b(k, c) for ascending k, skipping every k where a(r, k) == 0.
// This triple loop is that definition; the product must match it bit for
// bit, so a skipped zero never meets an inf or NaN in `b`, and a sum of
// negative zeros stays +0.0.
Matrix ReferenceProduct(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols(), 0.0);
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t k = 0; k < a.cols(); ++k) {
      const double x = a.At(r, k);
      if (x == 0.0) {
        continue;
      }
      for (size_t c = 0; c < b.cols(); ++c) {
        out.At(r, c) += x * b.At(k, c);
      }
    }
  }
  return out;
}

// Entries over many magnitudes, about a third of them zero (some -0.0),
// and a few that underflow to a signed zero when multiplied.
Matrix RandomMatrix(size_t rows, size_t cols, std::mt19937_64& gen) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const uint64_t pick = gen() % 12;
      const double mantissa = static_cast<double>(gen() >> 11) * 0x1.0p-53 - 0.5;
      double v = 0.0;
      if (pick < 3) {
        v = 0.0;
      } else if (pick == 3) {
        v = -0.0;
      } else if (pick == 4) {
        v = mantissa * 1e-200;
      } else {
        v = std::ldexp(mantissa, static_cast<int>(gen() % 41) - 20);
      }
      m.At(r, c) = v;
    }
  }
  return m;
}

void ExpectBitIdentical(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t r = 0; r < want.rows(); ++r) {
    for (size_t c = 0; c < want.cols(); ++c) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got.At(r, c)), std::bit_cast<uint64_t>(want.At(r, c)))
          << "element (" << r << ", " << c << ") of a " << want.rows() << "x"
          << want.cols() << " product: " << got.At(r, c) << " vs " << want.At(r, c);
    }
  }
}

TEST(MatrixTest, MultiplyMatchesReferenceBitForBitOnSquareSizes) {
  std::mt19937_64 gen(20061018);
  for (size_t n = 1; n <= 23; ++n) {
    for (int rep = 0; rep < 4; ++rep) {
      const Matrix a = RandomMatrix(n, n, gen);
      const Matrix b = RandomMatrix(n, n, gen);
      ExpectBitIdentical(a * b, ReferenceProduct(a, b));
      ExpectBitIdentical(a * a, ReferenceProduct(a, a));
    }
  }
}

TEST(MatrixTest, MultiplyMatchesReferenceBitForBitOnRectangularShapes) {
  std::mt19937_64 gen(4102);
  for (size_t rows : {1, 2, 3, 5, 8, 13}) {
    for (size_t inner : {1, 2, 7, 16, 17}) {
      for (size_t cols = 1; cols <= 37; ++cols) {
        const Matrix a = RandomMatrix(rows, inner, gen);
        const Matrix b = RandomMatrix(inner, cols, gen);
        ExpectBitIdentical(a * b, ReferenceProduct(a, b));
      }
    }
  }
}

TEST(MatrixTest, MultiplySkipsZeroLeftEntries) {
  // A zero in `a` skips its row of `b` entirely, so an inf or NaN there
  // never turns into 0 * inf = NaN; a nonzero entry does reach it.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t cols : {1, 3, 4, 9, 19}) {
    Matrix a(2, 3, 0.0);
    a.At(0, 1) = 2.0;
    a.At(1, 0) = 1.0;
    a.At(1, 2) = -0.0;
    Matrix b(3, cols, 1.0);
    for (size_t c = 0; c < cols; ++c) {
      b.At(0, c) = c % 2 == 0 ? kInf : std::numeric_limits<double>::quiet_NaN();
      b.At(1, c) = 0.5 * static_cast<double>(c);
      b.At(2, c) = kInf;
    }
    const Matrix p = a * b;
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(p.At(0, c), static_cast<double>(c));
      EXPECT_FALSE(std::signbit(p.At(0, c)));
    }
    EXPECT_TRUE(std::isinf(p.At(1, 0)));
    ExpectBitIdentical(p, ReferenceProduct(a, b));
  }
}

TEST(MatrixTest, InfNorm) {
  Matrix a(2, 3);
  a.At(0, 2) = -5.0;
  a.At(1, 0) = 2.0;
  EXPECT_DOUBLE_EQ(a.InfNorm(), 5.0);
}

TEST(SolveMarkovAbsorbingTest, SingleStateMeanTime) {
  // One transient state, absorption rate 0.01/h, rhs 1: x = 100 h.
  Matrix rates(1, 1, 0.0);
  const auto x = SolveMarkovAbsorbing(rates, {0.01}, {1.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 100.0, 1e-12);
}

TEST(SolveMarkovAbsorbingTest, MatchesCramerOnWellConditionedChain) {
  // healthy <-> degraded, degraded -> lost; compare against Cramer's rule on
  // (D - R) x = 1, i.e. [[a, -a], [-m, m + l]] x = (1, 1) with a the fault
  // rate, m the repair rate and l the loss rate.
  constexpr double kFault = 2e-4;
  constexpr double kRepair = 0.1;
  constexpr double kLoss = 1e-4;
  Matrix rates(2, 2, 0.0);
  rates.At(0, 1) = kFault;   // healthy -> degraded
  rates.At(1, 0) = kRepair;  // degraded -> healthy
  const std::vector<double> absorption = {0.0, kLoss};
  const auto gth = SolveMarkovAbsorbing(rates, absorption, {1.0, 1.0});
  ASSERT_TRUE(gth.has_value());

  const double det = kFault * kLoss;
  EXPECT_NEAR((*gth)[0] / ((kRepair + kLoss + kFault) / det), 1.0, 1e-12);
  EXPECT_NEAR((*gth)[1] / ((kFault + kRepair) / det), 1.0, 1e-12);
}

TEST(SolveMarkovAbsorbingTest, SurvivesExtremeStiffness) {
  // Serial-repair birth-death chain with fault rate 7e-7/h, repair 3/h and
  // four states: expected absorption time ~1e26 hours. LU loses all digits
  // here; GTH keeps full relative accuracy. Closed form for the dominant
  // path: T ≈ MV · (MV/MRV)^3.
  constexpr double kLambda = 1.0 / 1.4e6;
  constexpr double kMu = 3.0;
  const size_t n = 4;  // states: k failed, k = 0..3; absorbed at k = 4
  Matrix rates(n, n, 0.0);
  std::vector<double> absorption(n, 0.0);
  for (size_t k = 0; k < n; ++k) {
    if (k + 1 < n) {
      rates.At(k, k + 1) = kLambda;
    } else {
      absorption[k] = kLambda;
    }
    if (k > 0) {
      rates.At(k, k - 1) = kMu;
    }
  }
  const auto x = SolveMarkovAbsorbing(rates, absorption, std::vector<double>(n, 1.0));
  ASSERT_TRUE(x.has_value());
  const double expected = 1.4e6 * std::pow(1.4e6 * kMu, 3.0);
  EXPECT_NEAR((*x)[0] / expected, 1.0, 1e-3);
  // Monotone: deeper degradation is never farther from loss. (Adjacent
  // states differ by ~1/λ ≈ 1e6 h, below double resolution at 1e26, so only
  // the weak ordering is observable.)
  EXPECT_GE((*x)[0], (*x)[1]);
  EXPECT_GE((*x)[1], (*x)[2]);
  EXPECT_GE((*x)[2], (*x)[3]);
  EXPECT_GT((*x)[0], 0.0);
}

TEST(SolveMarkovAbsorbingTest, TrapStateReturnsNullopt) {
  Matrix rates(2, 2, 0.0);
  rates.At(0, 1) = 1.0;  // state 1 has no outflow at all
  EXPECT_FALSE(SolveMarkovAbsorbing(rates, {0.0, 0.0}, {1.0, 1.0}).has_value());
}

TEST(SolveMarkovAbsorbingTest, DimensionMismatchThrows) {
  Matrix rates(2, 2, 0.0);
  EXPECT_THROW(SolveMarkovAbsorbing(rates, {1.0}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(SolveMarkovAbsorbing(rates, {1.0, 1.0}, {1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace longstore

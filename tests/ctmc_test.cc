#include "src/model/ctmc.h"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

namespace longstore {
namespace {

TEST(CtmcTest, SingleTransientStateExpectedTime) {
  Ctmc chain;
  const int alive = chain.AddState();
  const int dead = chain.AddState(/*absorbing=*/true);
  chain.AddTransition(alive, dead, Rate::PerHour(0.01));
  const auto t = chain.ExpectedTimeToAbsorptionFrom(alive);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(t->hours(), 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(chain.ExpectedTimeToAbsorptionFrom(dead)->hours(), 0.0);
}

TEST(CtmcTest, TwoStageSequenceAddsMeans) {
  Ctmc chain;
  const int a = chain.AddState();
  const int b = chain.AddState();
  const int end = chain.AddState(/*absorbing=*/true);
  chain.AddTransition(a, b, Rate::PerHour(0.5));   // mean 2 h
  chain.AddTransition(b, end, Rate::PerHour(0.1)); // mean 10 h
  EXPECT_NEAR(chain.ExpectedTimeToAbsorptionFrom(a)->hours(), 12.0, 1e-9);
}

TEST(CtmcTest, BirthDeathMirrorsRaidFormula) {
  // Classic RAID-1 chain: healthy -> degraded at 2λ, degraded -> healthy at
  // μ, degraded -> lost at λ. MTTDL = (3λ + μ) / (2λ²).
  const double lambda = 1e-4;
  const double mu = 0.1;
  Ctmc chain;
  const int healthy = chain.AddState();
  const int degraded = chain.AddState();
  const int lost = chain.AddState(/*absorbing=*/true);
  chain.AddTransition(healthy, degraded, Rate::PerHour(2.0 * lambda));
  chain.AddTransition(degraded, healthy, Rate::PerHour(mu));
  chain.AddTransition(degraded, lost, Rate::PerHour(lambda));
  const double expected = (3.0 * lambda + mu) / (2.0 * lambda * lambda);
  EXPECT_NEAR(chain.ExpectedTimeToAbsorptionFrom(healthy)->hours(), expected,
              expected * 1e-12);
}

TEST(CtmcTest, UnreachableAbsorptionGivesInfiniteTime) {
  Ctmc chain;
  const int isolated = chain.AddState();
  const int a = chain.AddState();
  const int end = chain.AddState(/*absorbing=*/true);
  chain.AddTransition(a, end, Rate::PerHour(1.0));
  const auto times = chain.ExpectedTimeToAbsorption();
  ASSERT_TRUE(times.has_value());
  EXPECT_TRUE((*times)[0].is_infinite());   // isolated
  EXPECT_NEAR((*times)[1].hours(), 1.0, 1e-12);
  EXPECT_TRUE(chain.ExpectedTimeToAbsorptionFrom(isolated)->is_infinite());
}

TEST(CtmcTest, TrapReachableMeansInfiniteExpectedTime) {
  // a can fall into a trap state with no exit: E[T_absorb] from a = inf.
  Ctmc chain;
  const int a = chain.AddState();
  const int trap = chain.AddState();
  const int end = chain.AddState(/*absorbing=*/true);
  chain.AddTransition(a, end, Rate::PerHour(1.0));
  chain.AddTransition(a, trap, Rate::PerHour(1.0));
  EXPECT_TRUE(chain.ExpectedTimeToAbsorptionFrom(a)->is_infinite());
}

TEST(CtmcTest, AbsorptionProbabilitySplitsByRate) {
  Ctmc chain;
  const int start = chain.AddState();
  const int left = chain.AddState(/*absorbing=*/true);
  const int right = chain.AddState(/*absorbing=*/true);
  chain.AddTransition(start, left, Rate::PerHour(1.0));
  chain.AddTransition(start, right, Rate::PerHour(3.0));
  EXPECT_NEAR(*chain.AbsorptionProbability(start, left), 0.25, 1e-12);
  EXPECT_NEAR(*chain.AbsorptionProbability(start, right), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(*chain.AbsorptionProbability(left, left), 1.0);
  EXPECT_DOUBLE_EQ(*chain.AbsorptionProbability(left, right), 0.0);
}

TEST(CtmcTest, AbsorptionProbabilityWithIntermediateState) {
  // start -> mid (rate 1), start -> sink_a (rate 1); mid -> sink_b (rate 1).
  // P(sink_b) = 1/2.
  Ctmc chain;
  const int start = chain.AddState();
  const int mid = chain.AddState();
  const int sink_a = chain.AddState(/*absorbing=*/true);
  const int sink_b = chain.AddState(/*absorbing=*/true);
  chain.AddTransition(start, mid, Rate::PerHour(1.0));
  chain.AddTransition(start, sink_a, Rate::PerHour(1.0));
  chain.AddTransition(mid, sink_b, Rate::PerHour(1.0));
  EXPECT_NEAR(*chain.AbsorptionProbability(start, sink_b), 0.5, 1e-12);
}

TEST(CtmcTest, AbsorptionProbabilityByMatchesExponentialLaw) {
  Ctmc chain;
  const int alive = chain.AddState();
  const int dead = chain.AddState(/*absorbing=*/true);
  chain.AddTransition(alive, dead, Rate::PerHour(0.001));
  for (double t : {10.0, 500.0, 5000.0}) {
    const auto p = chain.AbsorptionProbabilityBy(alive, Duration::Hours(t));
    ASSERT_TRUE(p.has_value());
    EXPECT_NEAR(*p, 1.0 - std::exp(-0.001 * t), 1e-9) << "t=" << t;
  }
  EXPECT_DOUBLE_EQ(*chain.AbsorptionProbabilityBy(alive, Duration::Zero()), 0.0);
  EXPECT_DOUBLE_EQ(*chain.AbsorptionProbabilityBy(dead, Duration::Zero()), 1.0);
}

TEST(CtmcTest, AbsorptionProbabilityByHandlesStiffRates) {
  // Repair rate (3/h) vs fault rate (1e-6/h): the transient generator scaled
  // by a 50-year horizon has a huge norm; scaling-and-squaring must stay
  // stable. Compare against 1 - exp(-t/MTTDL) which is near-exact in this
  // rare-event regime.
  const double lambda = 1e-6;
  const double mu = 3.0;
  Ctmc chain;
  const int healthy = chain.AddState();
  const int degraded = chain.AddState();
  const int lost = chain.AddState(/*absorbing=*/true);
  chain.AddTransition(healthy, degraded, Rate::PerHour(2.0 * lambda));
  chain.AddTransition(degraded, healthy, Rate::PerHour(mu));
  chain.AddTransition(degraded, lost, Rate::PerHour(lambda));
  const double mttdl = (3.0 * lambda + mu) / (2.0 * lambda * lambda);
  const Duration horizon = Duration::Years(50.0);
  const auto p = chain.AbsorptionProbabilityBy(healthy, horizon);
  ASSERT_TRUE(p.has_value());
  const double expected = 1.0 - std::exp(-horizon.hours() / mttdl);
  EXPECT_NEAR(*p / expected, 1.0, 5e-3);
}

TEST(CtmcTest, GeneratorRowsSumToZero) {
  Ctmc chain;
  const int a = chain.AddState();
  const int b = chain.AddState();
  const int end = chain.AddState(/*absorbing=*/true);
  chain.AddTransition(a, b, Rate::PerHour(2.0));
  chain.AddTransition(a, end, Rate::PerHour(1.0));
  chain.AddTransition(b, a, Rate::PerHour(5.0));
  const Matrix q = chain.Generator();
  for (size_t r = 0; r < q.rows(); ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < q.cols(); ++c) {
      sum += q.At(r, c);
    }
    EXPECT_NEAR(sum, 0.0, 1e-12);
  }
  EXPECT_DOUBLE_EQ(q.At(0, 0), -3.0);
}

TEST(CtmcTest, InvalidTransitionsThrow) {
  Ctmc chain;
  const int a = chain.AddState();
  const int end = chain.AddState(/*absorbing=*/true);
  EXPECT_THROW(chain.AddTransition(a, a, Rate::PerHour(1.0)), std::invalid_argument);
  EXPECT_THROW(chain.AddTransition(end, a, Rate::PerHour(1.0)), std::invalid_argument);
  EXPECT_THROW(chain.AddTransition(a, 7, Rate::PerHour(1.0)), std::out_of_range);
  EXPECT_THROW(chain.AddTransition(a, end, Rate::Zero()), std::invalid_argument);
}

TEST(MatrixExponentialTest, ZeroMatrixGivesIdentity) {
  const Matrix e = MatrixExponential(Matrix(3, 3, 0.0));
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(e.At(r, c), r == c ? 1.0 : 0.0, 1e-15);
    }
  }
}

TEST(MatrixExponentialTest, DiagonalMatchesScalarExp) {
  Matrix a(2, 2, 0.0);
  a.At(0, 0) = -1.5;
  a.At(1, 1) = 2.0;
  const Matrix e = MatrixExponential(a);
  EXPECT_NEAR(e.At(0, 0), std::exp(-1.5), 1e-12);
  EXPECT_NEAR(e.At(1, 1), std::exp(2.0), 1e-10);
  EXPECT_NEAR(e.At(0, 1), 0.0, 1e-15);
}

TEST(MatrixExponentialTest, NilpotentKnownResult) {
  // exp([[0, 1], [0, 0]]) = [[1, 1], [0, 1]].
  Matrix a(2, 2, 0.0);
  a.At(0, 1) = 1.0;
  const Matrix e = MatrixExponential(a);
  EXPECT_NEAR(e.At(0, 0), 1.0, 1e-15);
  EXPECT_NEAR(e.At(0, 1), 1.0, 1e-15);
  EXPECT_NEAR(e.At(1, 0), 0.0, 1e-15);
  EXPECT_NEAR(e.At(1, 1), 1.0, 1e-15);
}

TEST(MatrixExponentialTest, RequiresSquare) {
  EXPECT_THROW(MatrixExponential(Matrix(2, 3)), std::invalid_argument);
}

}  // namespace
}  // namespace longstore

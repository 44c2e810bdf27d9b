#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "functions/chi_square.h"
#include "functions/jeffrey_divergence.h"
#include "functions/l2_norm.h"
#include "functions/linear.h"
#include "functions/linf_distance.h"
#include "functions/mutual_information.h"
#include "functions/variance.h"

namespace sgm {
namespace {

// ---------------------------------------------------------------- L2 / SJ --

TEST(L2NormTest, Values) {
  L2Norm norm(false);
  L2Norm sj(true);
  const Vector v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm.Value(v), 5.0);
  EXPECT_DOUBLE_EQ(sj.Value(v), 25.0);
}

TEST(L2NormTest, GradientMatchesNumeric) {
  L2Norm sj(true);
  const Vector v{1.0, -2.0, 0.5};
  const Vector grad = sj.Gradient(v);
  EXPECT_NEAR(grad[0], 2.0, 1e-9);
  EXPECT_NEAR(grad[1], -4.0, 1e-9);
  EXPECT_NEAR(grad[2], 1.0, 1e-9);
}

TEST(L2NormTest, ExactRangeOverBall) {
  L2Norm norm(false);
  const Ball ball(Vector{3.0, 0.0}, 1.0);
  const Interval range = norm.RangeOverBall(ball);
  EXPECT_DOUBLE_EQ(range.lo, 2.0);
  EXPECT_DOUBLE_EQ(range.hi, 4.0);
}

TEST(L2NormTest, RangeClampsAtZero) {
  L2Norm norm(false);
  const Ball ball(Vector{0.5, 0.0}, 2.0);
  EXPECT_DOUBLE_EQ(norm.RangeOverBall(ball).lo, 0.0);
}

TEST(L2NormTest, DistanceToSurface) {
  L2Norm norm(false);
  EXPECT_DOUBLE_EQ(norm.DistanceToSurface(Vector{3.0, 4.0}, 2.0), 3.0);
  L2Norm sj(true);
  EXPECT_DOUBLE_EQ(sj.DistanceToSurface(Vector{3.0, 4.0}, 4.0), 3.0);
  EXPECT_TRUE(std::isinf(sj.DistanceToSurface(Vector{1.0, 0.0}, -1.0)));
}

TEST(L2NormTest, BallCrossing) {
  L2Norm norm(false);
  EXPECT_TRUE(norm.BallCrossesThreshold(Ball(Vector{3.0, 0.0}, 1.0), 3.5));
  EXPECT_FALSE(norm.BallCrossesThreshold(Ball(Vector{3.0, 0.0}, 1.0), 4.5));
  EXPECT_FALSE(norm.BallCrossesThreshold(Ball(Vector{3.0, 0.0}, 1.0), 1.5));
}

TEST(L2NormTest, Homogeneity) {
  double degree = 0.0;
  EXPECT_TRUE(L2Norm(false).HomogeneityDegree(&degree));
  EXPECT_EQ(degree, 1.0);
  EXPECT_TRUE(L2Norm(true).HomogeneityDegree(&degree));
  EXPECT_EQ(degree, 2.0);
}

// ------------------------------------------------------------------- Linf --

TEST(LInfTest, ValueAgainstReference) {
  LInfDistance f(Vector{1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(f.Value(Vector{1.0, 4.0, 0.0}), 3.0);
}

TEST(LInfTest, OnSyncReanchors) {
  LInfDistance f(Vector{0.0, 0.0});
  EXPECT_DOUBLE_EQ(f.Value(Vector{2.0, 0.0}), 2.0);
  f.OnSync(Vector{2.0, 0.0});
  EXPECT_DOUBLE_EQ(f.Value(Vector{2.0, 0.0}), 0.0);
}

TEST(LInfTest, CloneIsIndependent) {
  LInfDistance f(Vector{0.0});
  auto clone = f.Clone();
  clone->OnSync(Vector{5.0});
  EXPECT_DOUBLE_EQ(f.Value(Vector{5.0}), 5.0);        // original unchanged
  EXPECT_DOUBLE_EQ(clone->Value(Vector{5.0}), 0.0);   // clone re-anchored
}

TEST(LInfTest, RangeOverBallMax) {
  LInfDistance f(Vector{0.0, 0.0});
  const Ball ball(Vector{3.0, 1.0}, 0.5);
  EXPECT_DOUBLE_EQ(f.RangeOverBall(ball).hi, 3.5);
}

TEST(LInfTest, RangeOverBallMinExactWhenLipschitzTight) {
  // Center on the x-axis: moving straight toward ref reduces L∞ at rate 1.
  LInfDistance f(Vector{0.0, 0.0});
  const Ball ball(Vector{3.0, 0.0}, 1.0);
  EXPECT_NEAR(f.RangeOverBall(ball).lo, 2.0, 1e-9);
}

TEST(LInfTest, RangeOverBallMinDiagonalCase) {
  // From (3,3), reducing max|coord| to t costs √2·(3−t); radius 1 reaches
  // t = 3 − 1/√2.
  LInfDistance f(Vector{0.0, 0.0});
  const Ball ball(Vector{3.0, 3.0}, 1.0);
  EXPECT_NEAR(f.RangeOverBall(ball).lo, 3.0 - 1.0 / std::sqrt(2.0), 1e-6);
}

TEST(LInfTest, DistanceToSurfaceInside) {
  LInfDistance f(Vector{0.0, 0.0});
  EXPECT_DOUBLE_EQ(f.DistanceToSurface(Vector{1.0, 0.5}, 4.0), 3.0);
}

TEST(LInfTest, DistanceToSurfaceOutside) {
  LInfDistance f(Vector{0.0, 0.0});
  // (5, 5) to box of half-width 4: excess (1, 1) → √2.
  EXPECT_NEAR(f.DistanceToSurface(Vector{5.0, 5.0}, 4.0), std::sqrt(2.0),
              1e-12);
}

// --------------------------------------------------------------------- JD --

TEST(JeffreyDivergenceTest, ZeroAtReference) {
  JeffreyDivergence jd(Vector{5.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(jd.Value(Vector{5.0, 3.0, 2.0}), 0.0);
}

TEST(JeffreyDivergenceTest, PositiveAwayFromReference) {
  JeffreyDivergence jd(Vector{5.0, 5.0});
  EXPECT_GT(jd.Value(Vector{9.0, 1.0}), 0.0);
}

TEST(JeffreyDivergenceTest, SymmetricInArguments) {
  // JD(p, q) == JD(q, p).
  JeffreyDivergence forward(Vector{6.0, 2.0, 2.0});
  JeffreyDivergence backward(Vector{2.0, 5.0, 3.0});
  EXPECT_NEAR(forward.Value(Vector{2.0, 5.0, 3.0}),
              backward.Value(Vector{6.0, 2.0, 2.0}), 1e-12);
}

TEST(JeffreyDivergenceTest, GradientMatchesNumeric) {
  JeffreyDivergence jd(Vector{4.0, 4.0});
  const Vector v{6.0, 2.0};
  const Vector analytic = jd.Gradient(v);
  // Compare against the base-class finite differences.
  const MonitoredFunction& base = jd;
  Vector probe = v;
  for (int j = 0; j < 2; ++j) {
    const double h = 1e-6;
    probe[j] = v[j] + h;
    const double fp = base.Value(probe);
    probe[j] = v[j] - h;
    const double fm = base.Value(probe);
    probe[j] = v[j];
    EXPECT_NEAR(analytic[j], (fp - fm) / (2 * h), 1e-5);
  }
}

TEST(JeffreyDivergenceTest, OnSyncMovesReference) {
  JeffreyDivergence jd(Vector{4.0, 4.0});
  jd.OnSync(Vector{1.0, 7.0});
  EXPECT_DOUBLE_EQ(jd.Value(Vector{1.0, 7.0}), 0.0);
  EXPECT_GT(jd.Value(Vector{4.0, 4.0}), 0.0);
}

// -------------------------------------------------------------------- χ² --

TEST(ChiSquareTest, IndependenceGivesNearZero) {
  ChiSquare chi(200.0);
  // a/b/c/d proportional to independent products: a=8,b=32,c=32,d=128
  // (p_term = .2, p_cat = .2, window 200).
  EXPECT_NEAR(chi.Value(Vector{8.0, 32.0, 32.0}), 0.0, 0.05);
}

TEST(ChiSquareTest, AssociationRaisesScore) {
  ChiSquare chi(200.0);
  const double independent = chi.Value(Vector{8.0, 32.0, 32.0});
  const double associated = chi.Value(Vector{30.0, 10.0, 10.0});
  EXPECT_GT(associated, independent + 0.5);
}

TEST(ChiSquareTest, PerfectAssociationNearScale) {
  // All mass on the diagonal (a, d): φ² → 1, score → scale (= 2).
  ChiSquare chi(200.0, /*smoothing=*/0.01);
  EXPECT_NEAR(chi.Value(Vector{100.0, 0.0, 0.0}), 2.0, 0.01);
}

TEST(ChiSquareTest, NonNegative) {
  ChiSquare chi(100.0);
  EXPECT_GE(chi.Value(Vector{0.0, 0.0, 0.0}), 0.0);
  EXPECT_GE(chi.Value(Vector{50.0, 25.0, 25.0}), 0.0);
}

TEST(ChiSquareTest, HandlesDegenerateCells) {
  ChiSquare chi(100.0);
  // All mass in one cell and negative probes must stay finite.
  EXPECT_TRUE(std::isfinite(chi.Value(Vector{100.0, 0.0, 0.0})));
  EXPECT_TRUE(std::isfinite(chi.Value(Vector{-5.0, -5.0, -5.0})));
}

// -------------------------------------------------------------------- MI --

TEST(MutualInformationTest, MatchesFormula) {
  MutualInformation mi(20.0, 5, 0.1);
  const Vector v{3.0, 2.0, 4.0};
  const double v1 = 3.1, v2 = 2.1, v3 = 4.1;
  EXPECT_NEAR(mi.Value(v), std::log(v1 * 20.0 * 5.0 / ((v1 + v3) * (v1 + v2))),
              1e-12);
}

TEST(MutualInformationTest, ExampleThreshold) {
  MutualInformation mi(20.0, 10);
  EXPECT_NEAR(mi.ExampleThreshold(), std::log(10.0) + 0.01, 1e-12);
}

TEST(MutualInformationTest, GradientMatchesNumeric) {
  MutualInformation mi(20.0, 10);
  const Vector v{3.0, 2.0, 4.0};
  const Vector analytic = mi.Gradient(v);
  Vector probe = v;
  for (int j = 0; j < 3; ++j) {
    const double h = 1e-6;
    probe[j] = v[j] + h;
    const double fp = mi.Value(probe);
    probe[j] = v[j] - h;
    const double fm = mi.Value(probe);
    probe[j] = v[j];
    EXPECT_NEAR(analytic[j], (fp - fm) / (2 * h), 1e-5);
  }
}

// ----------------------------------------------------------- stdev / var --

TEST(DispersionTest, KnownValues) {
  CoordinateDispersion stdev(false);
  CoordinateDispersion variance(true);
  const Vector v{1.0, 3.0};  // mean 2, deviations ±1
  EXPECT_DOUBLE_EQ(variance.Value(v), 1.0);
  EXPECT_DOUBLE_EQ(stdev.Value(v), 1.0);
}

TEST(DispersionTest, ConstantVectorIsZero) {
  CoordinateDispersion stdev(false);
  EXPECT_DOUBLE_EQ(stdev.Value(Vector{4.0, 4.0, 4.0}), 0.0);
}

TEST(DispersionTest, ShiftInvariance) {
  CoordinateDispersion stdev(false);
  const Vector v{1.0, 5.0, 3.0};
  Vector shifted = v;
  for (int j = 0; j < 3; ++j) shifted[j] += 100.0;
  EXPECT_NEAR(stdev.Value(v), stdev.Value(shifted), 1e-12);
}

TEST(DispersionTest, HomogeneityDegrees) {
  double degree = 0.0;
  EXPECT_TRUE(CoordinateDispersion(false).HomogeneityDegree(&degree));
  EXPECT_EQ(degree, 1.0);
  EXPECT_TRUE(CoordinateDispersion(true).HomogeneityDegree(&degree));
  EXPECT_EQ(degree, 2.0);
  // f(k·v) = k^α f(v) numerically:
  CoordinateDispersion stdev(false);
  const Vector v{1.0, 5.0, 3.0};
  EXPECT_NEAR(stdev.Value(v * 7.0), 7.0 * stdev.Value(v), 1e-9);
}

TEST(DispersionTest, ExactDistanceToSurface) {
  CoordinateDispersion stdev(false);
  const Vector v{1.0, 3.0};  // stdev 1
  // Surface stdev = 3: must move √d·|1−3| = 2√2 in L2.
  EXPECT_NEAR(stdev.DistanceToSurface(v, 3.0), 2.0 * std::sqrt(2.0), 1e-9);
}

TEST(DispersionTest, RangeOverBallExactOnAxis) {
  CoordinateDispersion stdev(false);
  const Vector c{0.0, 2.0};  // stdev 1, d = 2
  const Interval range = stdev.RangeOverBall(Ball(c, std::sqrt(2.0)));
  EXPECT_NEAR(range.lo, 0.0, 1e-9);
  EXPECT_NEAR(range.hi, 2.0, 1e-9);
}

// ----------------------------------------------------------------- linear --

TEST(LinearTest, ValueAndGradient) {
  LinearFunction f(Vector{2.0, -1.0}, 3.0);
  EXPECT_DOUBLE_EQ(f.Value(Vector{1.0, 1.0}), 4.0);
  EXPECT_EQ(f.Gradient(Vector{0.0, 0.0}), (Vector{2.0, -1.0}));
}

TEST(LinearTest, ExactRange) {
  LinearFunction f(Vector{3.0, 4.0});
  const Interval range = f.RangeOverBall(Ball(Vector{0.0, 0.0}, 1.0));
  EXPECT_DOUBLE_EQ(range.lo, -5.0);
  EXPECT_DOUBLE_EQ(range.hi, 5.0);
}

TEST(LinearTest, ExactSurfaceDistance) {
  LinearFunction f(Vector{3.0, 4.0});
  EXPECT_DOUBLE_EQ(f.DistanceToSurface(Vector{0.0, 0.0}, 10.0), 2.0);
}

TEST(LinearTest, CoordinateSumFactory) {
  auto f = LinearFunction::CoordinateSum(3);
  EXPECT_DOUBLE_EQ(f->Value(Vector{1.0, 2.0, 3.0}), 6.0);
}

TEST(LinearTest, HomogeneityOnlyWithoutBias) {
  double degree = 0.0;
  EXPECT_TRUE(LinearFunction(Vector{1.0, 1.0}).HomogeneityDegree(&degree));
  EXPECT_FALSE(LinearFunction(Vector{1.0}, 2.0).HomogeneityDegree(&degree));
}

// ------------------------------------------------------------ clone names --

TEST(FunctionTest, CloneKeepsName) {
  JeffreyDivergence jd(Vector{1.0, 1.0});
  ChiSquare chi(100.0);
  EXPECT_EQ(jd.Clone()->name(), "jeffrey_divergence");
  EXPECT_EQ(chi.Clone()->name(), "chi_square");
  EXPECT_EQ(L2Norm::SelfJoinSize()->name(), "self_join_size");
}

}  // namespace
}  // namespace sgm

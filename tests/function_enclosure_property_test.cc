// Property tests of the MonitoredFunction conservativeness contract
// (DESIGN.md §7): for every function and random ball, the RangeOverBall()
// enclosure must bound the function over sampled ball points, and
// DistanceToSurface() must be a lower bound on the true surface distance.
// These are the invariants GM's no-false-negative argument rests on.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "functions/chi_square.h"
#include "functions/jeffrey_divergence.h"
#include "functions/l2_norm.h"
#include "functions/linear.h"
#include "functions/linf_distance.h"
#include "functions/mutual_information.h"
#include "functions/variance.h"

namespace sgm {
namespace {

struct FunctionCase {
  std::string label;
  std::unique_ptr<MonitoredFunction> (*make)();
  std::size_t dim;
  double domain_lo;
  double domain_hi;
  double max_radius;
};

std::unique_ptr<MonitoredFunction> MakeL2() {
  return std::make_unique<L2Norm>(false);
}
std::unique_ptr<MonitoredFunction> MakeSj() {
  return std::make_unique<L2Norm>(true);
}
std::unique_ptr<MonitoredFunction> MakeLinf() {
  return std::make_unique<LInfDistance>(Vector{2.0, 5.0, 1.0, 4.0});
}
std::unique_ptr<MonitoredFunction> MakeJd() {
  return std::make_unique<JeffreyDivergence>(Vector{6.0, 3.0, 5.0, 4.0});
}
std::unique_ptr<MonitoredFunction> MakeChi() {
  return std::make_unique<ChiSquare>(100.0);
}
std::unique_ptr<MonitoredFunction> MakeMi() {
  return std::make_unique<MutualInformation>(20.0, 10);
}
std::unique_ptr<MonitoredFunction> MakeStdev() {
  return std::make_unique<CoordinateDispersion>(false);
}
std::unique_ptr<MonitoredFunction> MakeVariance() {
  return std::make_unique<CoordinateDispersion>(true);
}
std::unique_ptr<MonitoredFunction> MakeLinear() {
  return std::make_unique<LinearFunction>(Vector{1.0, -2.0, 0.5, 1.5}, 1.0);
}

std::vector<FunctionCase> AllCases() {
  // Count-valued functions get positive-orthant domains matching their
  // real operating regime.
  return {
      {"l2", &MakeL2, 4, -5.0, 5.0, 3.0},
      {"self_join", &MakeSj, 4, -5.0, 5.0, 3.0},
      {"linf", &MakeLinf, 4, -2.0, 8.0, 3.0},
      {"jd", &MakeJd, 4, 0.5, 12.0, 2.0},
      {"chi2", &MakeChi, 3, 1.0, 30.0, 2.0},
      {"mi", &MakeMi, 3, 1.0, 15.0, 1.5},
      {"stdev", &MakeStdev, 4, -5.0, 5.0, 3.0},
      {"variance", &MakeVariance, 4, -5.0, 5.0, 3.0},
      {"linear", &MakeLinear, 4, -5.0, 5.0, 3.0},
  };
}

class EnclosureTest : public ::testing::TestWithParam<std::size_t> {};

Vector RandomPoint(std::size_t dim, double lo, double hi, Rng* rng) {
  Vector p(dim);
  for (std::size_t j = 0; j < dim; ++j) p[j] = rng->NextDouble(lo, hi);
  return p;
}

Vector RandomBallPoint(const Ball& ball, Rng* rng) {
  Vector direction(ball.dim());
  for (std::size_t j = 0; j < ball.dim(); ++j) {
    direction[j] = rng->NextGaussian();
  }
  const double norm = direction.Norm();
  Vector point = ball.center();
  if (norm > 0.0) {
    const double r = ball.radius() * std::pow(rng->NextDouble(), 0.5);
    point.Axpy(r / norm, direction);
  }
  return point;
}

// Every sampled ball point's value must lie inside the reported enclosure.
TEST_P(EnclosureTest, RangeOverBallEncloses) {
  const FunctionCase fc = AllCases()[GetParam()];
  auto function = fc.make();
  Rng rng(1000 + GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const Vector center = RandomPoint(fc.dim, fc.domain_lo, fc.domain_hi, &rng);
    const Ball ball(center, rng.NextDouble(0.01, fc.max_radius));
    const Interval range = function->RangeOverBall(ball);
    EXPECT_LE(range.lo, range.hi);
    for (int s = 0; s < 25; ++s) {
      const Vector point = RandomBallPoint(ball, &rng);
      const double value = function->Value(point);
      EXPECT_GE(value, range.lo - 1e-7)
          << fc.label << " trial " << trial << " point " << point.ToString();
      EXPECT_LE(value, range.hi + 1e-7)
          << fc.label << " trial " << trial << " point " << point.ToString();
    }
  }
}

// BallCrossesThreshold must never report "safe" when sampled ball points
// actually straddle the threshold.
TEST_P(EnclosureTest, CrossingTestConservative) {
  const FunctionCase fc = AllCases()[GetParam()];
  auto function = fc.make();
  Rng rng(2000 + GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const Vector center = RandomPoint(fc.dim, fc.domain_lo, fc.domain_hi, &rng);
    const Ball ball(center, rng.NextDouble(0.01, fc.max_radius));
    double lo = function->Value(ball.center());
    double hi = lo;
    for (int s = 0; s < 40; ++s) {
      const double value = function->Value(RandomBallPoint(ball, &rng));
      lo = std::min(lo, value);
      hi = std::max(hi, value);
    }
    const double threshold = 0.5 * (lo + hi);
    if (lo < threshold && threshold < hi) {
      EXPECT_TRUE(function->BallCrossesThreshold(ball, threshold))
          << fc.label << " trial " << trial;
    }
  }
}

// The reported surface distance must be a lower bound: every sampled point
// strictly closer than it must sit on the same side of the threshold.
TEST_P(EnclosureTest, DistanceToSurfaceIsLowerBound) {
  const FunctionCase fc = AllCases()[GetParam()];
  auto function = fc.make();
  Rng rng(3000 + GetParam());
  int checked = 0;
  for (int trial = 0; trial < 60 && checked < 25; ++trial) {
    const Vector point = RandomPoint(fc.dim, fc.domain_lo, fc.domain_hi, &rng);
    const double value = function->Value(point);
    // Pick a threshold a bit away from the point's value.
    const double threshold = value + (rng.NextBernoulli(0.5) ? 1.0 : -1.0) *
                                         rng.NextDouble(0.05, 0.5) *
                                         (1.0 + std::abs(value));
    const double distance = function->DistanceToSurface(point, threshold);
    if (!std::isfinite(distance) || distance <= 1e-9) continue;
    ++checked;
    const bool above = value > threshold;
    const Ball inside(point, 0.95 * distance);
    for (int s = 0; s < 20; ++s) {
      const double v = function->Value(RandomBallPoint(inside, &rng));
      EXPECT_EQ(v > threshold, above)
          << fc.label << " trial " << trial << " dist " << distance;
    }
  }
  EXPECT_GT(checked, 0) << fc.label;
}

INSTANTIATE_TEST_SUITE_P(AllFunctions, EnclosureTest,
                         ::testing::Range<std::size_t>(0, 9),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return AllCases()[info.param].label;
                         });

}  // namespace
}  // namespace sgm

// The certified-cooldown count (MonitoredFunction::CertifiedCooldownCycles)
// against its definition:
//
//   max(0, ⌊(DistanceToSurface(point, T) − margin)/max_step⌋)
//
// χ² stops its surface-distance bisection as soon as both ends of the
// bracket give the same count, so these tests aim count boundaries at the
// bisection's last brackets: margins m = D − k·s nudged by one ulp either
// way put the boundary between the distance D the full search returns and
// its neighbours.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "functions/chi_square.h"
#include "functions/linf_distance.h"

namespace sgm {
namespace {

// The formula, from the full-precision surface distance.
long FormulaCount(double distance, double margin, double max_step) {
  return std::max<long>(
      0, static_cast<long>(std::floor((distance - margin) / max_step)));
}

// Checks the count at one point for every margin and step in the lists.
void ExpectCountsMatch(const MonitoredFunction& f, const Vector& point,
                       double threshold, const std::vector<double>& margins,
                       const std::vector<double>& steps) {
  const double distance = f.DistanceToSurface(point, threshold);
  for (double margin : margins) {
    for (double step : steps) {
      EXPECT_EQ(f.CertifiedCooldownCycles(point, threshold, margin, step),
                FormulaCount(distance, margin, step))
          << f.name() << " at " << point.ToString() << " T=" << threshold
          << std::hexfloat << " D=" << distance << " margin=" << margin
          << " step=" << step;
    }
  }
}

TEST(CertifiedCooldownTest, ChiSquareCountMatchesFormula) {
  const ChiSquare f(200.0);
  Rng rng(20261017);
  int split_boundaries = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Vector point{rng.NextDouble(-0.5, 30.0), rng.NextDouble(-0.5, 40.0),
                 rng.NextDouble(-0.5, 80.0)};
    if (trial % 4 == 0) point[trial % 3] = -rng.NextDouble(0.0, 0.5);
    for (double threshold : {0.5, 1.0}) {
      const double distance = f.DistanceToSurface(point, threshold);
      const double step = std::pow(10.0, rng.NextDouble(-3.0, 1.0));
      std::vector<double> margins = {
          0.0,
          rng.NextDouble(0.0, distance),       // an ε inside the room
          distance + rng.NextDouble(0.0, 5.0),  // no room at all
          -rng.NextDouble(0.0, 20.0),           // negative margin
      };
      // A count boundary at D: m = D − k·s and its one-ulp neighbours.
      const double k = std::floor(rng.NextDouble(0.0, distance / step + 1.0));
      const double aimed = distance - k * step;
      const std::vector<double> adversarial = {
          std::nextafter(aimed, -1e300), aimed, std::nextafter(aimed, 1e300)};
      margins.insert(margins.end(), adversarial.begin(), adversarial.end());
      ExpectCountsMatch(f, point, threshold, margins,
                        {1e-3, step, std::sqrt(2.0), 10.0});
      if (FormulaCount(distance, adversarial.front(), step) !=
          FormulaCount(distance, adversarial.back(), step)) {
        ++split_boundaries;
      }
    }
  }
  // The one-ulp nudges often straddle a count boundary at D itself, so a
  // search that stops before its bracket is that tight gets them wrong.
  EXPECT_GT(split_boundaries, 100);
}

// The surface through the point itself: the search returns 0 before
// bisecting, and only a negative margin leaves room.
TEST(CertifiedCooldownTest, ChiSquarePointOnSurface) {
  const ChiSquare f(200.0);
  for (const Vector& point :
       {Vector{6.0, 10.0, 40.0}, Vector{-0.06, 3.25, 17.5},
        Vector{50.0, 20.0, 30.0}}) {
    const double threshold = f.Value(point);
    ASSERT_EQ(f.DistanceToSurface(point, threshold), 0.0);
    ExpectCountsMatch(f, point, threshold, {0.0, 0.5, -0.5, -3.0},
                      {1e-3, 0.1, 1.0});
    EXPECT_EQ(f.CertifiedCooldownCycles(point, threshold, -3.0, 1.0), 3);
  }
}

// A closed-form distance keeps the default: the count is computed from
// DistanceToSurface() directly.
TEST(CertifiedCooldownTest, LInfDistanceUsesTheExactDistance) {
  const LInfDistance f(Vector{1.0, -2.0, 0.5});
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const Vector point{rng.NextDouble(-5.0, 5.0), rng.NextDouble(-5.0, 5.0),
                       rng.NextDouble(-5.0, 5.0)};
    const double threshold = rng.NextDouble(0.5, 8.0);
    const double distance = f.DistanceToSurface(point, threshold);
    ExpectCountsMatch(f, point, threshold,
                      {0.0, -1.0, distance + 0.25, distance - 0.75},
                      {1e-3, 0.3, 10.0});
  }
}

// A function whose enclosures never reach the threshold: the bisecting
// count must return the count of the expansion cap, as the distance does.
class FlatFunction final : public MonitoredFunction {
 public:
  std::string name() const override { return "flat"; }
  double Value(const Vector& /*v*/) const override { return 1.0; }
  long CertifiedCooldownCycles(const Vector& point, double threshold,
                               double margin, double max_step) const override {
    return BisectCooldownCycles(point, threshold, margin, max_step);
  }
  std::unique_ptr<MonitoredFunction> Clone() const override {
    return std::make_unique<FlatFunction>(*this);
  }
};

TEST(CertifiedCooldownTest, BisectingCountAtTheExpansionCap) {
  const FlatFunction f;
  const Vector point{0.5, -0.5};
  ExpectCountsMatch(f, point, 1.5, {0.0, -2.0, 1e6}, {1.0, 10.0, 1e3});
  EXPECT_GT(f.CertifiedCooldownCycles(point, 1.5, 0.0, 1e3), 0);
}

}  // namespace
}  // namespace sgm

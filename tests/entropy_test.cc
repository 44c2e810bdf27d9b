// Tests of the entropy monitored function (the DDoS-detection GM
// application).

#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "functions/entropy.h"

namespace sgm {
namespace {

// --------------------------------------------------------------- entropy --

TEST(EntropyTest, UniformMaximizes) {
  Entropy h(0.5);
  const double uniform = h.Value(Vector{10.0, 10.0, 10.0, 10.0});
  const double skewed = h.Value(Vector{37.0, 1.0, 1.0, 1.0});
  EXPECT_NEAR(uniform, std::log(4.0), 1e-9);
  EXPECT_LT(skewed, uniform);
}

TEST(EntropyTest, NonNegativeAndBounded) {
  Entropy h;
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    Vector v(6);
    for (int j = 0; j < 6; ++j) v[j] = rng.NextDouble(0.0, 50.0);
    const double value = h.Value(v);
    EXPECT_GE(value, 0.0);
    EXPECT_LE(value, std::log(6.0) + 1e-9);
  }
}

TEST(EntropyTest, ScaleInvariantValue) {
  Entropy h(1e-9);  // negligible smoothing for the invariance check
  const Vector v{4.0, 2.0, 2.0};
  EXPECT_NEAR(h.Value(v), h.Value(v * 10.0), 1e-6);
}

TEST(EntropyTest, GradientMatchesNumeric) {
  Entropy h(0.5);
  const Vector v{8.0, 3.0, 1.0, 5.0};
  const Vector analytic = h.Gradient(v);
  Vector probe = v;
  for (int j = 0; j < 4; ++j) {
    const double step = 1e-6;
    probe[j] = v[j] + step;
    const double fp = h.Value(probe);
    probe[j] = v[j] - step;
    const double fm = h.Value(probe);
    probe[j] = v[j];
    EXPECT_NEAR(analytic[j], (fp - fm) / (2 * step), 1e-5) << "dim " << j;
  }
}

TEST(EntropyTest, GradientZeroAtUniform) {
  Entropy h(0.5);
  const Vector grad = h.Gradient(Vector{7.0, 7.0, 7.0});
  EXPECT_NEAR(grad.Norm(), 0.0, 1e-12);
}

TEST(EntropyTest, EnclosureCoversSamples) {
  Entropy h;
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    Vector c(5);
    for (int j = 0; j < 5; ++j) c[j] = rng.NextDouble(1.0, 20.0);
    const Ball ball(c, rng.NextDouble(0.1, 2.0));
    const Interval range = h.RangeOverBall(ball);
    for (int s = 0; s < 20; ++s) {
      Vector direction(5);
      for (int j = 0; j < 5; ++j) direction[j] = rng.NextGaussian();
      Vector p = c;
      p.Axpy(ball.radius() * rng.NextDouble() / direction.Norm(), direction);
      const double value = h.Value(p);
      EXPECT_GE(value, range.lo - 1e-7);
      EXPECT_LE(value, range.hi + 1e-7);
    }
  }
}

}  // namespace
}  // namespace sgm

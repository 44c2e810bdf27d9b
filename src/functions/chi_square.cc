#include "functions/chi_square.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace sgm {

namespace {

// d = 3: axis probes plus extra random boundary probes cover the sphere
// well; the 2x safety factor absorbs residual curvature. ChiSquare keeps the
// base finite-difference Gradient(), so its probes evaluate central
// differences in the frame's buffers.
constexpr int kRandomProbes = 16;
constexpr double kSafetyFactor = 2.0;

}  // namespace

ChiSquare::ChiSquare(double window, double smoothing, double scale)
    : window_(window), smoothing_(smoothing), scale_(scale) {
  SGM_CHECK_MSG(window > 0.0, "window must be positive");
  SGM_CHECK_MSG(smoothing > 0.0, "smoothing must be positive");
  SGM_CHECK_MSG(scale > 0.0, "scale must be positive");
}

double ChiSquare::Value(const Vector& v) const {
  SGM_CHECK_MSG(v.dim() == 3, "chi_square expects [a, b, c] count vectors");
  // Smooth and clamp the three observed cells; the fourth cell is the
  // remainder of the window.
  const double a = std::max(v[0], 0.0) + smoothing_;
  const double b = std::max(v[1], 0.0) + smoothing_;
  const double c = std::max(v[2], 0.0) + smoothing_;
  const double d =
      std::max(window_ - (v[0] + v[1] + v[2]), 0.0) + smoothing_;
  const double total = a + b + c + d;
  // Normalized cells make the score invariant to a global rescaling of v.
  const double pa = a / total, pb = b / total, pc = c / total, pd = d / total;
  const double numerator = pa * pd - pb * pc;
  const double denominator = (pa + pb) * (pc + pd) * (pa + pc) * (pb + pd);
  return scale_ * numerator * numerator / denominator;
}

Interval ChiSquare::RangeOverBall(const Ball& ball) const {
  // φ² is smooth and nearly quadratic around independence (∇f ≈ 0 there):
  // the second-order probe enclosure is decisively tighter than the
  // Lipschitz one, which would otherwise place the threshold surface a
  // spurious factor ~4 too close.
  return ProbeQuadraticRange(ball, kRandomProbes, kSafetyFactor,
                             /*central_differences=*/true);
}

double ChiSquare::GradientNormBound(const Ball& ball) const {
  return ProbeGradientNormBound(ball, kRandomProbes, kSafetyFactor,
                                /*central_differences=*/true);
}

std::unique_ptr<MonitoredFunction::RadiusSearch> ChiSquare::NewRadiusSearch(
    const Vector& center) const {
  // The frame RangeOverBall() builds for a single ball, kept for all radii.
  return std::make_unique<ProbeFrame>(
      *this, ProbeFrame::Prober::kQuadraticRange, center, kRandomProbes,
      kSafetyFactor, /*central_differences=*/true);
}

bool ChiSquare::HomogeneityDegree(double* degree) const {
  // Section 7.2 lists the χ² *score* (on a full contingency table) as
  // homogeneous of degree 0, but this parameterization derives the fourth
  // cell from the fixed window remainder w − a − b − c, which does not scale
  // with v; the composed function is therefore not homogeneous.
  (void)degree;
  return false;
}

}  // namespace sgm

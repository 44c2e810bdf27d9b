#ifndef SGM_FUNCTIONS_CHI_SQUARE_H_
#define SGM_FUNCTIONS_CHI_SQUARE_H_

#include <memory>
#include <string>

#include "functions/monitored_function.h"

namespace sgm {

/// Normalized χ² (mean-square contingency) score of a (term, category)
/// contingency table derived from the 3-dimensional windowed count vector
/// v = [a, b, c]:
///
///   a = #(term ∧ category),  b = #(term ∧ ¬category),
///   c = #(¬term ∧ category), d = w − a − b − c,
///   φ²(v) = (p_a·p_d − p_b·p_c)² / ((p_a+p_b)(p_c+p_d)(p_a+p_c)(p_b+p_d))
///   f(v)  = scale · φ²(v)
///
/// with p_* the window-normalized cells. φ² = χ²/n is the Pearson statistic
/// per observation (the squared correlation of the two indicators), so the
/// score measures association *strength*, bounded in [0, scale] — the form
/// under which the paper's Reuters thresholds 0.5–1.5 (with default scale 2)
/// sit meaningfully between independence and perfect association. This is
/// the Reuters workload of the paper ([18, 19, 21]). Cells are
/// Laplace-smoothed to keep denominators positive.
///
/// No closed-form ball extrema exist; ball tests use the probed second-order
/// enclosure (ProbeQuadraticRange) with an elevated safety factor (d = 3, so
/// the probes cover the sphere densely). DistanceToSurface() bisects over one
/// ProbeFrame per call, which derives f(c), ∇f(c) and the probe directions
/// once for all radii; CertifiedCooldownCycles() stops that bisection once
/// the count is decided.
class ChiSquare final : public MonitoredFunction {
 public:
  /// `window` is the per-site sliding-window length w (fixes the derived
  /// fourth cell); `smoothing` the per-cell Laplace constant; `scale` the
  /// output scaling of φ².
  explicit ChiSquare(double window, double smoothing = 2.0,
                     double scale = 2.0);

  std::string name() const override { return "chi_square"; }

  double Value(const Vector& v) const override;
  Interval RangeOverBall(const Ball& ball) const override;
  double GradientNormBound(const Ball& ball) const override;
  bool HomogeneityDegree(double* degree) const override;

  /// The bisection stops once the cooldown count is decided.
  long CertifiedCooldownCycles(const Vector& point, double threshold,
                               double margin, double max_step) const override {
    return BisectCooldownCycles(point, threshold, margin, max_step);
  }

  std::unique_ptr<MonitoredFunction> Clone() const override {
    return std::make_unique<ChiSquare>(*this);
  }

 protected:
  std::unique_ptr<RadiusSearch> NewRadiusSearch(
      const Vector& center) const override;

 private:
  double window_;
  double smoothing_;
  double scale_;
};

}  // namespace sgm

#endif  // SGM_FUNCTIONS_CHI_SQUARE_H_

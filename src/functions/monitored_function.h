#ifndef SGM_FUNCTIONS_MONITORED_FUNCTION_H_
#define SGM_FUNCTIONS_MONITORED_FUNCTION_H_

#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "core/vector.h"
#include "geometry/ball.h"
#include "geometry/safe_zone.h"

namespace sgm {

/// Closed interval [lo, hi] used as a range enclosure of f over a region.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  bool Straddles(double threshold) const {
    return lo <= threshold && threshold <= hi;
  }
};

/// A (generally non-linear) function f : R^d → R tracked against a threshold.
///
/// This is the query abstraction of the whole library. Geometric monitoring
/// tracks whether f(v(t)) ≤ T for the global average vector v(t); the local
/// test every protocol performs is "does my constraint ball intersect the
/// threshold surface {f = T}?", which this interface exposes as
/// BallCrossesThreshold().
///
/// ### Conservativeness contract
/// RangeOverBall() must return an *enclosure*: `lo ≤ min_B f` and
/// `hi ≥ max_B f`. Consequently BallCrossesThreshold() may report a crossing
/// that does not exist (costing a false-positive synchronization, which GM
/// tolerates by design) but never misses a true crossing — the property the
/// GM correctness argument needs. Subclasses with closed-form extrema
/// override RangeOverBall() with exact bounds; the default implementation
/// uses a certified-by-construction Lipschitz bound f(c) ± r·L where L is
/// GradientNormBound() over the ball.
///
/// ### References
/// Functions whose definition involves the last centrally-collected state
/// (e.g. L∞/Jeffrey distance *to the histogram shipped at the previous
/// synchronization*) override OnSync() to re-anchor themselves. Protocols
/// must therefore own a private Clone() of the function they track.
class MonitoredFunction {
 public:
  virtual ~MonitoredFunction() = default;

  virtual std::string name() const = 0;

  /// f(v).
  virtual double Value(const Vector& v) const = 0;

  /// ∇f(v); default central finite differences (exact overrides preferred).
  virtual Vector Gradient(const Vector& v) const;

  /// Enclosure of f over the closed ball (see conservativeness contract).
  virtual Interval RangeOverBall(const Ball& ball) const;

  /// Upper bound on sup_{x∈ball} ‖∇f(x)‖ used by the default
  /// RangeOverBall(). The default estimates the bound by probing gradients at
  /// the center, the axis-extreme points and random boundary points, padded
  /// by a 1.5× safety factor; override with a certified analytic bound where
  /// one exists.
  virtual double GradientNormBound(const Ball& ball) const;

  /// True when the ball (possibly) intersects the threshold surface {f = T}.
  /// Conservative per the enclosure contract.
  virtual bool BallCrossesThreshold(const Ball& ball, double threshold) const;

  /// Lower bound on the Euclidean distance from `point` to {f = T}
  /// (the ε_T of Figure 5, and the safe-zone radius of Section 6.6).
  /// The default binary-searches the largest ball around `point` whose
  /// RangeOverBall() enclosure stays on one side of T, asking the crossing
  /// verdicts of one NewRadiusSearch() object; exact overrides exist for
  /// norms.
  /// `search_radius` caps the search.
  virtual double DistanceToSurface(const Vector& point, double threshold,
                                   double search_radius = 0.0) const;

  /// The certified-cooldown count (DESIGN.md §5)
  ///   max(0, ⌊(DistanceToSurface(point, threshold) − margin)/max_step⌋):
  /// how many cycles an average within `margin` of `point`, moving at most
  /// `max_step` (> 0) per cycle, stays off the surface. The default computes
  /// it from DistanceToSurface(), so it is exact for every function; a
  /// function on the default bisection may return BisectCooldownCycles(),
  /// which asks far fewer radii for the same count.
  virtual long CertifiedCooldownCycles(const Vector& point, double threshold,
                                       double margin, double max_step) const;

  /// Re-anchors reference-based functions to the freshly-synced global
  /// average `e`; no-op by default.
  virtual void OnSync(const Vector& e);

  /// Builds the best available convex safe zone (Section 4): a convex
  /// subset of the admissible region on `e`'s side of the threshold
  /// surface, containing `e`. The default is the maximal inscribed ball
  /// B(e, DistanceToSurface(e, T)); functions whose admissible region is
  /// itself convex override with the exact region (the CV literature's
  /// point that zone quality is function-specific). `above` tells which
  /// side of the surface is currently admissible.
  virtual std::unique_ptr<SafeZone> BuildSafeZone(const Vector& e,
                                                  double threshold,
                                                  bool above) const;

  /// Degree α when f is homogeneous (f(k·v) = k^α f(v)), used by the
  /// Section-7 sum-parameterization transforms. Returns false when f is not
  /// homogeneous.
  virtual bool HomogeneityDegree(double* degree) const;

  /// Deep copy (protocols anchor private references via OnSync).
  virtual std::unique_ptr<MonitoredFunction> Clone() const = 0;

 protected:
  /// Enclosures of f over the balls B(c, r) of one fixed center c, asked
  /// radius by radius: the object DistanceToSurface() bisects over. It
  /// refers to the function that made it and must not outlive it.
  class RadiusSearch {
   public:
    RadiusSearch() = default;
    RadiusSearch(const RadiusSearch&) = delete;
    RadiusSearch& operator=(const RadiusSearch&) = delete;
    virtual ~RadiusSearch() = default;

    /// Enclosure of f over B(c, radius); equal, bit for bit, to
    /// RangeOverBall(Ball(c, radius)).
    virtual Interval At(double radius) = 0;

    /// The crossing verdict At(radius).Straddles(threshold), which is all
    /// DistanceToSurface() asks of a radius. An override may settle it with
    /// less work but must return the same answer for every radius and
    /// threshold, in any order of calls.
    virtual bool Crosses(double radius, double threshold) {
      return At(radius).Straddles(threshold);
    }
  };

  /// ∇f(x) into `*gradient`: the gradient the probing enclosures below
  /// evaluate at every probe point. The default assigns Gradient(x). A
  /// function that keeps the base finite-difference Gradient() may override
  /// it with CentralDifferences() over its own non-virtual evaluation of f
  /// and a fixed-size probe buffer (see ChiSquare): the same doubles, with no
  /// allocation and no virtual call per evaluation.
  virtual void ProbeGradient(const Vector& x, Vector* gradient) const;

  /// The base Gradient(): central differences of f = value(*probe) at `v`
  /// into `*gradient`, with `*probe` (indexable like v, of v's dimension) as
  /// a work buffer.
  template <typename Evaluate, typename Point>
  static void CentralDifferences(const Evaluate& value, const Vector& v,
                                 Point* probe, Vector* gradient);

  /// The radius-search hook of DistanceToSurface(). The default runs
  /// RangeOverBall() afresh at every radius. A function whose enclosure
  /// spends most of its work on the center (see ChiSquare) returns an
  /// object that does that work once; it must keep the bit-identity
  /// contract of RadiusSearch::At() and the verdict contract of
  /// RadiusSearch::Crosses().
  virtual std::unique_ptr<RadiusSearch> NewRadiusSearch(
      const Vector& center) const;

  /// CertifiedCooldownCycles() from the default DistanceToSurface()
  /// bisection, stopped as soon as both ends of the bracket give the same
  /// count: the full search would end inside the bracket, and the count is
  /// monotone in the distance, so the result is the default's. Only for
  /// functions that keep the default DistanceToSurface().
  long BisectCooldownCycles(const Vector& point, double threshold,
                            double margin, double max_step) const;

  /// The center-bound part of the probing enclosures below, computed once:
  /// f(c), ∇f(c), the prober's seeded random directions and their norms,
  /// plus work buffers reused across probes and radii. The directions are
  /// drawn in their seeded order when a probe first needs them, so a verdict
  /// settled by the axis probes draws none. Each radius then costs only the
  /// probe gradients at that radius, and runs the same floating-point
  /// operations in the same order as a fresh single-ball probe, so every
  /// result is the same double. A frame is a local object of one call (it
  /// holds no state shared between calls) and must not outlive its function.
  class ProbeFrame final : public RadiusSearch {
   public:
    /// The two probers; each draws its own seeded directions.
    enum class Prober { kQuadraticRange, kGradientNorm };

    /// Probe gradients come from `function`.ProbeGradient().
    ProbeFrame(const MonitoredFunction& function, Prober prober,
               const Vector& center, int random_probes, double safety_factor);

    /// kQuadraticRange: the ProbeQuadraticRange() enclosure of B(c, radius).
    Interval At(double radius) override;

    /// kQuadraticRange: At(radius).Straddles(threshold), settled at the
    /// first probe whose running curvature maximum already gives an interval
    /// that straddles T. It asks r·‖∇f(c)‖ alone first, then the probe that
    /// last set the maximum (at an earlier radius), then the rest; only a
    /// "no" visits every probe. Exact because the interval only widens as
    /// the curvature grows (DESIGN.md §7).
    bool Crosses(double radius, double threshold) override;

    /// kGradientNorm: the ProbeGradientNormBound() bound over B(c, radius).
    double GradientNormBound(double radius);

   private:
    bool HasProbe(std::size_t probe);
    const Vector& ProbePoint(std::size_t probe, double radius);
    double Secant(std::size_t probe, double radius);
    Interval Enclosure(double radius, double curvature) const;
    const Vector& GradientAt(const Vector& x);

    const MonitoredFunction& function_;
    Prober prober_;
    double safety_factor_;
    Vector center_;
    double center_value_ = 0.0;
    Vector center_gradient_;
    double center_gradient_norm_ = 0.0;
    Rng rng_;               // the seeded direction stream
    int draws_left_;        // directions not yet drawn from rng_
    std::vector<double> directions_;  // one row of dim() draws per probe
    std::vector<double> direction_norms_;
    Vector point_;     // the probe point being evaluated
    Vector gradient_;  // ∇f at point_
    std::size_t hint_ = 0;  // the probe that last raised Crosses()' maximum
  };

  /// Shared helper for the default GradientNormBound() probing: the largest
  /// ‖∇f‖ over the center, the axis-extreme points and `random_probes`
  /// seeded boundary points, times `safety_factor`.
  double ProbeGradientNormBound(const Ball& ball, int random_probes,
                                double safety_factor) const;

  /// Second-order enclosure for smooth functions:
  ///   f(c) ± (r·‖∇f(c)‖ + ½·r²·H)
  /// with H a curvature bound probed as max ‖∇f(x) − ∇f(c)‖ / ‖x − c‖ over
  /// axis and random ball points, padded by `safety_factor`. Far tighter
  /// than the Lipschitz enclosure where the gradient vanishes (e.g. χ² near
  /// independence), at the cost of extra gradient evaluations.
  Interval ProbeQuadraticRange(const Ball& ball, int random_probes,
                               double safety_factor) const;

 private:
  /// The default DistanceToSurface() search. Before each bisection step it
  /// asks `decided(lo, hi)` of the bracket [lo, hi] and returns lo early
  /// when that holds.
  template <typename Decided>
  double BisectDistance(const Vector& point, double threshold,
                        double search_radius, Decided&& decided) const;
};

template <typename Evaluate, typename Point>
void MonitoredFunction::CentralDifferences(const Evaluate& value,
                                           const Vector& v, Point* probe,
                                           Vector* gradient) {
  // Central differences with per-coordinate scaled step.
  SGM_DCHECK(gradient->dim() == v.dim());
  for (std::size_t j = 0; j < v.dim(); ++j) (*probe)[j] = v[j];
  for (std::size_t j = 0; j < v.dim(); ++j) {
    const double h = 1e-6 * (1.0 + std::abs(v[j]));
    const double saved = (*probe)[j];
    (*probe)[j] = saved + h;
    const double f_plus = value(*probe);
    (*probe)[j] = saved - h;
    const double f_minus = value(*probe);
    (*probe)[j] = saved;
    (*gradient)[j] = (f_plus - f_minus) / (2.0 * h);
  }
}

}  // namespace sgm

#endif  // SGM_FUNCTIONS_MONITORED_FUNCTION_H_

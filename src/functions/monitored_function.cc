#include "functions/monitored_function.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/check.h"

namespace sgm {

namespace {

// Seed contribution of one scaled center coordinate. Converting a negative
// or out-of-range double straight to uint64 is undefined, so non-negative
// values convert as uint64, negative ones through int64 (keeping its
// two's-complement bits), and NaN and values outside both ranges map to
// 2^63.
std::uint64_t SeedBits(double x) {
  constexpr double kTwo63 = 9223372036854775808.0;
  if (x >= 0.0 && x < 2.0 * kTwo63) return static_cast<std::uint64_t>(x);
  if (x < 0.0 && x >= -kTwo63) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(x));
  }
  return std::uint64_t{1} << 63;
}

// Deterministic per-center probe seed keeps results reproducible.
std::uint64_t ProbeSeed(std::uint64_t seed, const Vector& c) {
  for (std::size_t j = 0; j < c.dim(); ++j) {
    seed = seed * 6364136223846793005ULL + SeedBits(c[j] * 1e6) +
           1442695040888963407ULL;
  }
  return seed;
}

// max(0, ⌊(distance − margin)/max_step⌋), kept as a double: a bisection
// bracket's upper end may lie far beyond the range of long. Subtracting,
// dividing by a positive step and flooring are each monotone in IEEE
// arithmetic, so the count is monotone in `distance`.
double CooldownCount(double distance, double margin, double max_step) {
  SGM_CHECK(max_step > 0.0);
  return std::max(0.0, std::floor((distance - margin) / max_step));
}

}  // namespace

Vector MonitoredFunction::Gradient(const Vector& v) const {
  Vector grad(v.dim());
  Vector probe;
  CentralDifferenceGradient(v, &probe, &grad);
  return grad;
}

void MonitoredFunction::CentralDifferenceGradient(const Vector& v,
                                                  Vector* probe,
                                                  Vector* gradient) const {
  // Central differences with per-coordinate scaled step.
  SGM_DCHECK(gradient->dim() == v.dim());
  *probe = v;
  for (std::size_t j = 0; j < v.dim(); ++j) {
    const double h = 1e-6 * (1.0 + std::abs(v[j]));
    const double saved = (*probe)[j];
    (*probe)[j] = saved + h;
    const double f_plus = Value(*probe);
    (*probe)[j] = saved - h;
    const double f_minus = Value(*probe);
    (*probe)[j] = saved;
    (*gradient)[j] = (f_plus - f_minus) / (2.0 * h);
  }
}

MonitoredFunction::ProbeFrame::ProbeFrame(const MonitoredFunction& function,
                                          Prober prober, const Vector& center,
                                          int random_probes,
                                          double safety_factor,
                                          bool central_differences)
    : function_(function),
      prober_(prober),
      safety_factor_(safety_factor),
      central_differences_(central_differences),
      center_(center),
      gradient_(center.dim()) {
  if (prober == Prober::kQuadraticRange) center_value_ = function.Value(center);
  center_gradient_ = GradientAt(center_);
  center_gradient_norm_ = center_gradient_.Norm();

  Rng rng(ProbeSeed(
      prober == Prober::kQuadraticRange ? 0x2545f491u : 0x5bd1e995u, center));
  Vector direction(center.dim());
  directions_.reserve(random_probes * center.dim());
  direction_norms_.reserve(random_probes);
  for (int p = 0; p < random_probes; ++p) {
    for (std::size_t j = 0; j < center.dim(); ++j) {
      direction[j] = rng.NextGaussian();
    }
    const double norm = direction.Norm();
    if (norm == 0.0) continue;
    directions_.insert(directions_.end(), direction.data().begin(),
                       direction.data().end());
    direction_norms_.push_back(norm);
  }
}

const Vector& MonitoredFunction::ProbeFrame::GradientAt(const Vector& x) {
  if (central_differences_) {
    function_.CentralDifferenceGradient(x, &difference_probe_, &gradient_);
  } else {
    gradient_ = function_.Gradient(x);
  }
  return gradient_;
}

// Calls visit(x) at the probe points of B(c, radius) in the probers' fixed
// order: c ± radius·e_j for every axis j, then c + radius·u/‖u‖ for every
// seeded direction u.
template <typename Visit>
void MonitoredFunction::ProbeFrame::ForEachProbePoint(double radius,
                                                      Visit&& visit) {
  const std::size_t dim = center_.dim();
  point_ = center_;
  for (std::size_t j = 0; j < dim; ++j) {
    const double saved = point_[j];
    point_[j] = saved + radius;
    visit(point_);
    point_[j] = saved - radius;
    visit(point_);
    point_[j] = saved;
  }
  for (std::size_t p = 0; p < direction_norms_.size(); ++p) {
    // point_ = c; point_.Axpy(radius / ‖u‖, u), on the stored row of u.
    const double scale = radius / direction_norms_[p];
    const double* direction = directions_.data() + p * dim;
    for (std::size_t j = 0; j < dim; ++j) {
      point_[j] = center_[j] + scale * direction[j];
    }
    visit(point_);
  }
}

Interval MonitoredFunction::ProbeFrame::At(double radius) {
  SGM_CHECK(prober_ == Prober::kQuadraticRange);
  if (radius == 0.0) return Interval{center_value_, center_value_};
  double curvature = 0.0;
  ForEachProbePoint(radius, [&](const Vector& x) {
    const double distance = x.DistanceTo(center_);
    if (distance <= 0.0) return;
    // ‖∇f(x) − ∇f(c)‖, computed as the distance between the two gradients.
    const double secant = GradientAt(x).DistanceTo(center_gradient_) / distance;
    curvature = std::max(curvature, secant);
  });
  const double spread = radius * center_gradient_norm_ +
                        0.5 * radius * radius * curvature * safety_factor_;
  return Interval{center_value_ - spread, center_value_ + spread};
}

double MonitoredFunction::ProbeFrame::GradientNormBound(double radius) {
  SGM_CHECK(prober_ == Prober::kGradientNorm);
  double bound = center_gradient_norm_;
  ForEachProbePoint(radius, [&](const Vector& x) {
    bound = std::max(bound, GradientAt(x).Norm());
  });
  return bound * safety_factor_;
}

double MonitoredFunction::ProbeGradientNormBound(
    const Ball& ball, int random_probes, double safety_factor,
    bool central_differences) const {
  return ProbeFrame(*this, ProbeFrame::Prober::kGradientNorm, ball.center(),
                    random_probes, safety_factor, central_differences)
      .GradientNormBound(ball.radius());
}

Interval MonitoredFunction::ProbeQuadraticRange(
    const Ball& ball, int random_probes, double safety_factor,
    bool central_differences) const {
  return ProbeFrame(*this, ProbeFrame::Prober::kQuadraticRange, ball.center(),
                    random_probes, safety_factor, central_differences)
      .At(ball.radius());
}

double MonitoredFunction::GradientNormBound(const Ball& ball) const {
  return ProbeGradientNormBound(ball, /*random_probes=*/8,
                                /*safety_factor=*/1.5);
}

Interval MonitoredFunction::RangeOverBall(const Ball& ball) const {
  const double center_value = Value(ball.center());
  const double spread = ball.radius() * GradientNormBound(ball);
  return Interval{center_value - spread, center_value + spread};
}

bool MonitoredFunction::BallCrossesThreshold(const Ball& ball,
                                             double threshold) const {
  return RangeOverBall(ball).Straddles(threshold);
}

template <typename Decided>
double MonitoredFunction::BisectDistance(const Vector& point, double threshold,
                                         double search_radius,
                                         Decided&& decided) const {
  const double value_gap = std::abs(Value(point) - threshold);
  if (value_gap == 0.0) return 0.0;

  // Initial radius guess from the local slope, then exponential expansion up
  // to the cap, then bisection between the last safe and first crossing radii.
  const double slope = Gradient(point).Norm();
  double lo = 0.0;
  double hi = std::max(1e-9, value_gap / (slope + 1e-12));
  const double cap =
      search_radius > 0.0 ? search_radius : std::max(1e3, hi * 1e6);

  const std::unique_ptr<RadiusSearch> search = NewRadiusSearch(point);
  int expansions = 0;
  while (!search->At(hi).Straddles(threshold)) {
    lo = hi;
    hi *= 2.0;
    if (hi >= cap || ++expansions > 200) return std::min(hi, cap);
  }
  for (int iter = 0; iter < 60; ++iter) {
    if (decided(lo, hi)) break;
    const double mid = 0.5 * (lo + hi);
    // Past the fixed point every step re-tests lo or hi, whose verdicts are
    // known, and moves nothing.
    if (mid == lo || mid == hi) break;
    if (search->At(mid).Straddles(threshold)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return lo;
}

double MonitoredFunction::DistanceToSurface(const Vector& point,
                                            double threshold,
                                            double search_radius) const {
  return BisectDistance(point, threshold, search_radius,
                        [](double, double) { return false; });
}

long MonitoredFunction::CertifiedCooldownCycles(const Vector& point,
                                                double threshold,
                                                double margin,
                                                double max_step) const {
  return static_cast<long>(CooldownCount(DistanceToSurface(point, threshold),
                                         margin, max_step));
}

long MonitoredFunction::BisectCooldownCycles(const Vector& point,
                                             double threshold, double margin,
                                             double max_step) const {
  // lo only grows and hi only shrinks, so every later midpoint, and the lo
  // the full search returns, lies in [lo, hi]; equal counts at both ends fix
  // the count there.
  const auto count = [margin, max_step](double distance) {
    return CooldownCount(distance, margin, max_step);
  };
  const double distance = BisectDistance(
      point, threshold, /*search_radius=*/0.0,
      [&count](double lo, double hi) { return count(lo) == count(hi); });
  return static_cast<long>(count(distance));
}

std::unique_ptr<MonitoredFunction::RadiusSearch>
MonitoredFunction::NewRadiusSearch(const Vector& center) const {
  class PerRadius final : public RadiusSearch {
   public:
    PerRadius(const MonitoredFunction& function, const Vector& center)
        : function_(function), center_(center) {}
    Interval At(double radius) override {
      return function_.RangeOverBall(Ball(center_, radius));
    }

   private:
    const MonitoredFunction& function_;
    Vector center_;
  };
  return std::make_unique<PerRadius>(*this, center);
}

void MonitoredFunction::OnSync(const Vector& /*e*/) {}

std::unique_ptr<SafeZone> MonitoredFunction::BuildSafeZone(
    const Vector& e, double threshold, bool /*above*/) const {
  return std::make_unique<BallSafeZone>(
      Ball(e, DistanceToSurface(e, threshold)));
}

bool MonitoredFunction::HomogeneityDegree(double* /*degree*/) const {
  return false;
}

}  // namespace sgm

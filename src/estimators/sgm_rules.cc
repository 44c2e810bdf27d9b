#include "estimators/sgm_rules.h"

#include "geometry/ball.h"

namespace sgm {

bool ProbeEscalates(const MonitoredFunction& function, double threshold,
                    bool believes_above, const Vector& v_hat, double epsilon) {
  const bool estimate_switched =
      (function.Value(v_hat) > threshold) != believes_above;
  const bool ball_crosses =
      function.BallCrossesThreshold(Ball(v_hat, epsilon), threshold);
  return estimate_switched || ball_crosses;
}

void AnchorAt(MonitoredFunction* function, const Vector& e, double threshold,
              bool* believes_above, double* epsilon_t) {
  function->OnSync(e);
  *believes_above = function->Value(e) > threshold;
  *epsilon_t = function->DistanceToSurface(e, threshold);
}

bool ReanchorInsteadOfProbe(int consecutive_alarms, int after_consecutive,
                            std::size_t probe_size, double probe_fraction,
                            int num_sites) {
  return (after_consecutive > 0 && consecutive_alarms >= after_consecutive) ||
         (probe_fraction > 0.0 &&
          static_cast<double>(probe_size) >=
              probe_fraction * static_cast<double>(num_sites));
}

}  // namespace sgm

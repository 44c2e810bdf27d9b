#ifndef SGM_ESTIMATORS_SGM_RULES_H_
#define SGM_ESTIMATORS_SGM_RULES_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/check.h"
#include "core/rng.h"
#include "core/vector.h"
#include "functions/monitored_function.h"

namespace sgm {

// The SGM decisions the simulator (SamplingGeometricMonitor,
// CvSamplingMonitor) and the runtime (SiteNode, CoordinatorNode) share, each
// defined once, pure and IO-free; callers own all state.

/// β of U(t) ≤ β·ε_T (DriftBoundU); Lemma 3's P_FN bound becomes
/// δ^(|Z|M/(β√N)).
inline constexpr double kUThresholdFactor = 6.0;

/// U(t), the drift-norm scale of Section 3, the minimum of: the drift one
/// step per cycle accumulates since the sync (Example 3); the a-priori drift
/// cap (√2·window for windowed streams); and β·max(ε_T, step), the U ∝ ε_T
/// that Lemma 3's final P_FN = O(δ^{|Z|M/√N}) bound instantiates, floored at
/// one step so U never vanishes on the surface. Inline: per site and cycle.
inline double DriftBoundU(double max_step_norm, long cycles_since_sync,
                          double drift_norm_cap, double epsilon_t) {
  const double accumulated = max_step_norm * static_cast<double>(
                                 std::max<long>(1, cycles_since_sync));
  const double threshold_scale =
      kUThresholdFactor * std::max(epsilon_t, max_step_norm);
  return std::min({accumulated, drift_norm_cap, threshold_scale});
}

/// Δv_i = v_i(t) − v_i(t_s) written into `*drift`, whose buffer is reused
/// when its dimension matches, and ‖Δv_i‖ from the same pass. The doubles
/// equal `*drift = local; *drift -= synced; drift->Norm()`. Inline: per site
/// and cycle.
inline double DriftAndNorm(const Vector& local, const Vector& synced,
                           Vector* drift) {
  SGM_CHECK(local.dim() == synced.dim());
  if (drift->dim() != local.dim()) *drift = Vector(local.dim());
  double squared = 0.0;
  for (std::size_t i = 0; i < local.dim(); ++i) {
    const double x = local[i] - synced[i];
    (*drift)[i] = x;
    squared += x * x;
  }
  return std::sqrt(squared);
}

/// Largest M the coin's key holds: trials are numbered in 16 bits.
inline constexpr int kMaxSamplingTrials = 1 << 16;

/// Site `site`'s coin in trial `trial` of cycle `cycle`: a uniform double in
/// [0, 1), a pure function of its key, so both tiers flip the same coin. The
/// key (seed + γ·(site + 1), cycle·2^16 + trial) is injective for site <
/// 2^31, cycle < 2^47 and trial < 2^16: output number cycle·2^16 + trial + 1
/// of SplitMix64 seeded per site. Inline: per site, cycle and trial.
inline double CoinUniform(std::uint64_t seed, int site, long cycle,
                          int trial) {
  const std::uint64_t site_key =
      MixBits(seed + kSplitMix64Gamma * (static_cast<std::uint64_t>(site) + 1));
  const std::uint64_t draw = (static_cast<std::uint64_t>(cycle) << 16) |
                             static_cast<std::uint64_t>(trial);
  return UnitInterval(MixBits(site_key + kSplitMix64Gamma * (draw + 1)));
}

/// A site's membership in one cycle's M sampling trials (Lemma 2).
struct TrialDraw {
  bool first_trial = false;  ///< trial 1: the sample a probe asks
  bool any_trial = false;    ///< some trial: arms the local ball test
};

/// The site's M trials, each sampling it when its coin falls below g: g ≤ 0
/// never samples and g ≥ 1 always does. Stops at the first hit, which fixes
/// both flags. Inline: per site and cycle.
inline TrialDraw DrawTrials(std::uint64_t seed, int site, long cycle,
                            double g, int num_trials) {
  TrialDraw draw;
  if (g <= 0.0) return draw;
  for (int trial = 0; trial < num_trials; ++trial) {
    if (g >= 1.0 || CoinUniform(seed, site, cycle, trial) < g) {
      draw.first_trial = trial == 0;
      draw.any_trial = true;
      break;
    }
  }
  return draw;
}

/// The partial check's ε: the tail bound's (Bernstein's ε for SGM,
/// McDiarmid's ε_C for CVSGM) held to ε_T/2, so a probe escalates once the
/// estimate has used half its room to the surface (DESIGN.md §5).
inline double PartialCheckEpsilon(double bound_epsilon, double epsilon_t) {
  return std::min(bound_epsilon, 0.5 * epsilon_t);
}

/// The partial synchronization's verdict (Section 2.2): escalate to a full
/// sync when f(v̂) > T disagrees with the belief or B(v̂, ε) crosses T.
bool ProbeEscalates(const MonitoredFunction& function, double threshold,
                    bool believes_above, const Vector& v_hat, double epsilon);

/// The re-anchor after a sync to the estimate e: `function`'s OnSync(e),
/// then the belief f(e) > T and ε_T, the distance of e from the surface.
void AnchorAt(MonitoredFunction* function, const Vector& e, double threshold,
              bool* believes_above, double* epsilon_t);

/// The simulator's adaptive re-anchoring (DESIGN.md §5; the runtime has
/// none): a full sync instead of a probe once `consecutive_alarms` (alarm
/// cycles in a row, this one included) reaches `after_consecutive`, or once
/// the first-trial sample holds `probe_fraction` of the N sites. A zero
/// parameter disables its rule.
bool ReanchorInsteadOfProbe(int consecutive_alarms, int after_consecutive,
                            std::size_t probe_size, double probe_fraction,
                            int num_sites);

}  // namespace sgm

#endif  // SGM_ESTIMATORS_SGM_RULES_H_

#ifndef SGM_GM_CVSGM_H_
#define SGM_GM_CVSGM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "estimators/sampling.h"
#include "gm/cvgm.h"

namespace sgm {

/// Options of the revised (1-d) sampling-based safe-zone monitor.
struct CvsgmOptions {
  double delta = 0.1;
  /// Sampling trials; 0 = auto via the Lemma-5 formula, 1 = single trial
  /// (the configuration the paper's Section 6.6 evaluates).
  int num_trials = 1;
  /// Adaptive re-anchoring under consecutive alarms, as in SgmOptions.
  int escalate_after_consecutive_alarms = 8;
  /// Drift-saturation escalation, as in SgmOptions.
  double escalate_probe_fraction = 0.125;
  /// Certified alarm cooldown in 1-d, as in SgmOptions: after resolving
  /// with D̂_C + ε_C ≤ 0, D_C moves at most max_step per cycle, so
  /// monitoring can pause ⌊(−D̂_C − ε_C)/max_step⌋ cycles risk-free.
  bool certified_cooldown = true;
  CvOptions cv;
  /// Seed of the sampling coins (estimators/sgm_rules.h's CoinUniform).
  std::uint64_t seed = 4242;
};

/// CVSGM — the revised sampling-based scheme in the convex-safe-zone
/// context (Section 4.2), built on the paper's novel unidimensional mapping
/// (Lemma 4 / Corollary 1).
///
/// Every site reduces its state to the *signed distance* d_C(e + Δv_i) from
/// the safe zone and samples itself with g_i^C = |d_C|·ln(1/δ)/(U·√N); a
/// sampled site alarms when d_C ≥ 0. The synchronization cascade then works
/// entirely in 1-d for as long as possible:
///   1. partial probe: the first-trial sample ships its scalar distances;
///      the coordinator forms D̂_C (Estimator 5) and dismisses the alarm if
///      D̂_C + ε_C ≤ 0 (McDiarmid ε_C = U/√(2·ln(1/δ)), tighter than the
///      Bernstein ε of the d-dimensional scheme);
///   2. 1-d resolution: otherwise the remaining sites ship their scalars;
///      if the exact D_C < 0 the average is *certainly* inside C
///      (Corollary 1) — an FP resolved at one double per site instead of a
///      d-vector (the "CVSGM 1-d Res" bars of Figures 15(b)/16(b));
///   3. full synchronization only when even the exact D_C is nonnegative.
class CvSamplingMonitor : public ConvexSafeZoneMonitor {
 public:
  CvSamplingMonitor(const MonitoredFunction& function, double threshold,
                    double max_step_norm, const CvsgmOptions& options);

  std::string name() const override { return "CVSGM"; }

  int effective_trials() const { return effective_trials_; }

 protected:
  CycleOutcome MonitorCycle(const std::vector<Vector>& local_vectors,
                            Metrics* metrics) override;
  void AfterSync(const std::vector<Vector>& local_vectors,
                 Metrics* metrics) override;

 private:
  CvsgmOptions options_;
  int effective_trials_ = 1;
  /// ln(1/δ) and √N, set once N is known.
  std::optional<SamplingScale> sampling_;
  bool last_alarm_reached_stage2_ = false;
  // MonitorCycle's per-cycle buffers, reused so that a cycle allocates
  // nothing per site: the drift and position e + Δv_i of the site at hand,
  // every site's signed distance d_C, and the first-trial sample K1 with
  // each member's g_i.
  Vector drift_;
  Vector position_;
  std::vector<double> distances_;
  std::vector<int> first_trial_;
  std::vector<double> first_trial_g_;
};

}  // namespace sgm

#endif  // SGM_GM_CVSGM_H_

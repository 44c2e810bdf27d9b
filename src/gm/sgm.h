#ifndef SGM_GM_SGM_H_
#define SGM_GM_SGM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "estimators/sampling.h"
#include "sim/protocol.h"

namespace sgm {

/// How sites compute their inclusion probabilities.
enum class SamplingMode {
  /// g_i = ‖Δv_i‖·ln(1/δ)/(U·√N) — the paper's Equation-4 function.
  kDriftWeighted,
  /// g = ln(1/δ)/√N for everyone — the Section-6.5 Bernoulli baseline.
  kUniform,
};

/// Options of the sampling-based monitor.
struct SgmOptions {
  /// Application tolerance δ ∈ (0, e⁻¹); tunes ε, the FN rate and the
  /// expected sample size in one knob (Requirement 3).
  double delta = 0.1;
  /// Sampling trials per site per cycle. 0 = auto via Lemma 2(c)'s formula
  /// (the "M-SGM" configuration); 1 = the paper's plain SGM worst case.
  int num_trials = 1;
  SamplingMode mode = SamplingMode::kDriftWeighted;
  /// Adaptive re-anchoring: when alarms fire in this many *consecutive*
  /// cycles (each partially resolved), escalate once to a full
  /// synchronization — the stream is camped against the threshold surface
  /// and one N+1-message re-anchor is cheaper than partial probes forever.
  /// 0 disables (pure paper behaviour; see bench/ablation_design_choices).
  int escalate_after_consecutive_alarms = 8;
  /// Re-anchor when an alarm's first-trial sample reaches this fraction of
  /// N: the sample size is Σg_i ∝ Σ‖Δv_i‖/U, so a large sample means the
  /// whole network has drifted — at that point one full synchronization
  /// both costs little more than the probe it replaces and resets every
  /// drift (shrinking all future samples). 0 disables.
  double escalate_probe_fraction = 0.125;
  /// Certified alarm cooldown: after a partial resolution with estimate v̂
  /// at distance D from the surface, the true average (which moves at most
  /// max_step_norm per cycle and lies within ε of v̂ w.p. ≥ 1 − δ) cannot
  /// cross for ⌊(D − ε)/max_step⌋ cycles, so the coordinator broadcasts a
  /// mute for that long and nobody alarms — the same (ε, δ) guarantee class
  /// as the paper's partial check, at one extra broadcast. false disables.
  bool certified_cooldown = true;
  /// Ablation switch: skip the partial synchronization entirely and answer
  /// every alarm with a full synchronization (sampling-only monitoring).
  bool always_full_sync = false;
  /// Seed of the sampling coins (estimators/sgm_rules.h's CoinUniform).
  std::uint64_t seed = 2024;
};

/// SGM / M-SGM — the paper's contribution (Sections 2–3).
///
/// Per update cycle every site flips M independent biased coins with its
/// own probability g_i; only self-sampled sites inscribe the *un-scaled* GM
/// ball B(e + Δv_i/2, ‖Δv_i‖/2) (justified by Lemma 2) and test it against
/// the threshold surface. Because only O(ln(1/δ)·√N) balls exist, the
/// monitored region is a subset of GM's (Requirement 1) and false-positive
/// alarms collapse with N.
///
/// On an alarm the coordinator first runs a *partial synchronization*: it
/// probes only the first-trial sample, forms the Horvitz–Thompson estimate
/// v̂ (Estimator 1, unbiased by Lemma 1), and checks the ε-ball B(v̂, ε)
/// with ε from the Vector Bernstein inequality (Equation 4). If the ε-ball
/// is clear of the surface the alarm is dismissed as an FP at O(√N) cost;
/// otherwise a full synchronization completes the remaining N − |K|
/// collections. The scheme may miss true crossings with probability
/// bounded by Lemma 3 — tunable via δ and self-correcting over cycles.
class SamplingGeometricMonitor : public ProtocolBase {
 public:
  SamplingGeometricMonitor(const MonitoredFunction& function, double threshold,
                           double max_step_norm, const SgmOptions& options);

  std::string name() const override;

  /// The trial count actually in effect for the current network size
  /// (resolved after Initialize() when options.num_trials == 0).
  int effective_trials() const { return effective_trials_; }

 protected:
  CycleOutcome MonitorCycle(const std::vector<Vector>& local_vectors,
                            Metrics* metrics) override;
  void AfterSync(const std::vector<Vector>& local_vectors,
                 Metrics* metrics) override;

 private:
  double InclusionProbability(double drift_norm, double U) const;

  SgmOptions options_;
  int effective_trials_ = 1;
  /// ln(1/δ) and √N, set once N is known.
  std::optional<SamplingScale> sampling_;
  // MonitorCycle's per-cycle buffers, reused so that a cycle allocates
  // nothing per site: the drift of the site at hand, and the first-trial
  // sample K1 with each member's g_i.
  Vector drift_;
  std::vector<int> first_trial_;
  std::vector<double> first_trial_g_;
};

}  // namespace sgm

#endif  // SGM_GM_SGM_H_

#include "gm/sgm.h"

#include "core/check.h"
#include "estimators/horvitz_thompson.h"
#include "estimators/sampling.h"
#include "estimators/sgm_rules.h"
#include "estimators/tail_bounds.h"
#include "geometry/ball.h"

namespace sgm {

SamplingGeometricMonitor::SamplingGeometricMonitor(
    const MonitoredFunction& function, double threshold, double max_step_norm,
    const SgmOptions& options)
    : ProtocolBase(function, threshold, max_step_norm), options_(options) {
  SGM_CHECK_MSG(options.delta > 0.0 && options.delta < 1.0,
                "delta must lie in (0, 1)");
  SGM_CHECK(options.num_trials >= 0);
}

std::string SamplingGeometricMonitor::name() const {
  if (options_.mode == SamplingMode::kUniform) return "Bernoulli";
  return effective_trials_ > 1 ? "M-SGM" : "SGM";
}

void SamplingGeometricMonitor::AfterSync(
    const std::vector<Vector>& /*local_vectors*/, Metrics* /*metrics*/) {
  if (sampling_.has_value()) return;  // one-time setup on the first sync
  effective_trials_ = options_.num_trials > 0
                          ? options_.num_trials
                          : NumTrials(options_.delta, num_sites_);
  SGM_CHECK(effective_trials_ <= kMaxSamplingTrials);
  sampling_.emplace(options_.delta, num_sites_);
}

double SamplingGeometricMonitor::InclusionProbability(double drift_norm,
                                                      double U) const {
  if (options_.mode == SamplingMode::kUniform) return sampling_->Uniform();
  return sampling_->Probability(U, drift_norm);
}

CycleOutcome SamplingGeometricMonitor::MonitorCycle(
    const std::vector<Vector>& local_vectors, Metrics* metrics) {
  CycleOutcome outcome;
  // Certified cooldown: the average provably cannot have crossed yet.
  if (Muted()) return outcome;
  const double U = CurrentU();

  // Monitoring phase: every site decides its own sample membership; sampled
  // sites (any trial) run the un-scaled GM ball test. The first-trial sample
  // K1 is remembered for the partial synchronization probe.
  first_trial_.clear();
  first_trial_g_.clear();
  bool alarm = false;
  for (int i = 0; i < num_sites_; ++i) {
    const double drift_norm =
        DriftAndNorm(local_vectors[i], synced_locals_[i], &drift_);
    const double g = InclusionProbability(drift_norm, U);
    const TrialDraw draw =
        DrawTrials(options_.seed, i, absolute_cycle_, g, effective_trials_);
    if (draw.first_trial) {
      first_trial_.push_back(i);
      first_trial_g_.push_back(g);
    }
    if (draw.any_trial && !alarm) {
      const Ball constraint = Ball::LocalConstraint(e_, drift_);
      alarm = function_->BallCrossesThreshold(constraint, threshold_);
    }
  }
  if (!alarm) return outcome;
  outcome.local_alarm = true;

  // Re-anchor instead of probing: always under the ablation switch, else
  // under sustained alarm pressure or drift saturation (see SgmOptions).
  if (options_.always_full_sync ||
      ReanchorInsteadOfProbe(alarm_streak_ + 1,
                             options_.escalate_after_consecutive_alarms,
                             first_trial_.size(),
                             options_.escalate_probe_fraction, num_sites_)) {
    FullSync(local_vectors, metrics, /*already_collected=*/0);
    outcome.full_sync = true;
    return outcome;
  }

  // Partial synchronization: probe only K1, form the HT estimate, check the
  // ε-ball. Cost: 1 broadcast request + |K1| drift vectors.
  metrics->AddBroadcast(0);
  metrics->AddSiteMessages(static_cast<long>(first_trial_.size()), dim_);
  HtVectorEstimator estimator(num_sites_, dim_);
  for (std::size_t k = 0; k < first_trial_.size(); ++k) {
    Drift(first_trial_[k], local_vectors, &drift_);
    estimator.AddSample(drift_, first_trial_g_[k]);
  }
  const Vector v_hat = estimator.Estimate(e_);
  const double epsilon =
      PartialCheckEpsilon(BernsteinEpsilon(options_.delta, U), epsilon_T());
  if (!ProbeEscalates(*function_, threshold_, believes_above_, v_hat,
                      epsilon)) {
    // High-probability FP: dismiss without touching the other N − |K| sites.
    outcome.partial_resolved = true;
    metrics->OnPartialResolution();
    if (options_.certified_cooldown) {
      Mute(function_->CertifiedCooldownCycles(v_hat, threshold_, epsilon,
                                              max_step_norm_),
           metrics);
    }
    return outcome;
  }

  FullSync(local_vectors, metrics,
           /*already_collected=*/static_cast<int>(first_trial_.size()));
  outcome.full_sync = true;
  return outcome;
}

}  // namespace sgm

#include "gm/sgm.h"

#include <algorithm>

#include "core/check.h"
#include "estimators/horvitz_thompson.h"
#include "estimators/sampling.h"
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
  if (!site_rngs_.empty()) return;  // one-time setup on the first sync
  Rng root(options_.seed);
  site_rngs_.reserve(num_sites_);
  for (int i = 0; i < num_sites_; ++i) site_rngs_.push_back(root.Fork());
  effective_trials_ = options_.num_trials > 0
                          ? options_.num_trials
                          : NumTrials(options_.delta, num_sites_);
}

double SamplingGeometricMonitor::InclusionProbability(double drift_norm,
                                                      double U) const {
  if (options_.mode == SamplingMode::kUniform) {
    return BernoulliSamplingProbability(options_.delta, num_sites_);
  }
  return SamplingProbability(options_.delta, U, num_sites_, drift_norm);
}

double SamplingGeometricMonitor::AverageSampleSize() const {
  if (sample_cycles_ == 0) return 0.0;
  return static_cast<double>(sample_size_accum_) /
         static_cast<double>(sample_cycles_);
}

CycleOutcome SamplingGeometricMonitor::MonitorCycle(
    const std::vector<Vector>& local_vectors, Metrics* metrics) {
  CycleOutcome outcome;
  ++absolute_cycle_;
  if (absolute_cycle_ <= muted_until_cycle_) {
    // Certified cooldown: the average provably cannot have crossed yet.
    consecutive_alarms_ = 0;
    return outcome;
  }
  const double U = CurrentU();

  // Monitoring phase: every site decides its own sample membership; sampled
  // sites (any trial) run the un-scaled GM ball test. The first-trial sample
  // K1 is remembered for the partial synchronization probe.
  std::vector<int> first_trial;
  std::vector<double> first_trial_g;
  bool alarm = false;
  for (int i = 0; i < num_sites_; ++i) {
    const Vector drift = Drift(i, local_vectors);
    const double g = InclusionProbability(drift.Norm(), U);
    bool in_any_trial = false;
    for (int trial = 0; trial < effective_trials_; ++trial) {
      const bool sampled = site_rngs_[i].NextBernoulli(g);
      if (trial == 0 && sampled) {
        first_trial.push_back(i);
        first_trial_g.push_back(g);
      }
      in_any_trial = in_any_trial || sampled;
    }
    if (in_any_trial && !alarm) {
      const Ball constraint = Ball::LocalConstraint(e_, drift);
      if (function_->BallCrossesThreshold(constraint, threshold_)) {
        alarm = true;  // keep drawing samples so RNG use stays uniform
      }
    }
  }
  sample_size_accum_ += static_cast<long>(first_trial.size());
  ++sample_cycles_;
  if (!alarm) {
    consecutive_alarms_ = 0;
    return outcome;
  }
  outcome.local_alarm = true;
  ++consecutive_alarms_;

  if (options_.always_full_sync) {
    consecutive_alarms_ = 0;
    FullSync(local_vectors, metrics, /*already_collected=*/0);
    outcome.full_sync = true;
    return outcome;
  }

  // Sustained back-to-back alarm pressure: re-anchor once instead of paying
  // partial probes indefinitely (see SgmOptions).
  if (options_.escalate_after_consecutive_alarms > 0 &&
      consecutive_alarms_ >= options_.escalate_after_consecutive_alarms) {
    consecutive_alarms_ = 0;
    FullSync(local_vectors, metrics, /*already_collected=*/0);
    outcome.full_sync = true;
    return outcome;
  }

  // Drift-saturation escalation: when the would-be probe is already a
  // sizable fraction of the network, re-anchor instead (see SgmOptions).
  if (options_.escalate_probe_fraction > 0.0 &&
      static_cast<double>(first_trial.size()) >=
          options_.escalate_probe_fraction * static_cast<double>(num_sites_)) {
    consecutive_alarms_ = 0;
    FullSync(local_vectors, metrics, /*already_collected=*/0);
    outcome.full_sync = true;
    return outcome;
  }

  // Partial synchronization: probe only K1, form the HT estimate, check the
  // ε-ball. Cost: 1 broadcast request + |K1| drift vectors.
  metrics->AddBroadcast(0);
  metrics->AddSiteMessages(static_cast<long>(first_trial.size()), dim_);
  HtVectorEstimator estimator(num_sites_, dim_);
  for (std::size_t k = 0; k < first_trial.size(); ++k) {
    estimator.AddSample(Drift(first_trial[k], local_vectors),
                        first_trial_g[k]);
  }
  const Vector v_hat = estimator.Estimate(e_);
  // ε from the Vector Bernstein bound, additionally held to half the room
  // between e and the surface: with Section 3's third U guidance (U tied to
  // ε_T) the ε-ball check stays decisive — it escalates exactly when the
  // estimate has genuinely consumed a constant fraction of its slack rather
  // than whenever enough cycles have elapsed since the last sync.
  const double epsilon = std::min(BernsteinEpsilon(options_.delta, U),
                                  0.5 * epsilon_T());

  const bool estimate_switched =
      (function_->Value(v_hat) > threshold_) != believes_above_;
  const bool ball_crosses =
      function_->BallCrossesThreshold(Ball(v_hat, epsilon), threshold_);
  if (!estimate_switched && !ball_crosses) {
    // High-probability FP: dismiss without touching the other N − |K| sites.
    outcome.partial_resolved = true;
    metrics->OnPartialResolution();
    if (options_.certified_cooldown) {
      const long mute = function_->CertifiedCooldownCycles(
          v_hat, threshold_, epsilon, max_step_norm_);
      if (mute > 0) {
        muted_until_cycle_ = absolute_cycle_ + mute;
        metrics->AddBroadcast(1);  // the coordinator announces the mute
      }
    }
    return outcome;
  }

  consecutive_alarms_ = 0;
  FullSync(local_vectors, metrics,
           /*already_collected=*/static_cast<int>(first_trial.size()));
  outcome.full_sync = true;
  return outcome;
}

}  // namespace sgm

#include "gm/cvsgm.h"

#include <cmath>

#include "core/check.h"
#include "estimators/horvitz_thompson.h"
#include "estimators/sampling.h"
#include "estimators/sgm_rules.h"
#include "estimators/tail_bounds.h"

namespace sgm {

CvSamplingMonitor::CvSamplingMonitor(const MonitoredFunction& function,
                                     double threshold, double max_step_norm,
                                     const CvsgmOptions& options)
    : ConvexSafeZoneMonitor(function, threshold, max_step_norm, options.cv),
      options_(options) {
  SGM_CHECK_MSG(options.delta > 0.0 && options.delta < 1.0,
                "delta must lie in (0, 1)");
  SGM_CHECK(options.num_trials >= 0);
}

void CvSamplingMonitor::AfterSync(const std::vector<Vector>& local_vectors,
                                  Metrics* metrics) {
  ConvexSafeZoneMonitor::AfterSync(local_vectors, metrics);
  if (sampling_.has_value()) return;  // one-time setup on the first sync
  effective_trials_ = options_.num_trials > 0
                          ? options_.num_trials
                          : NumTrialsCV(options_.delta, num_sites_);
  SGM_CHECK(effective_trials_ <= kMaxSamplingTrials);
  sampling_.emplace(options_.delta, num_sites_);
}

CycleOutcome CvSamplingMonitor::MonitorCycle(
    const std::vector<Vector>& local_vectors, Metrics* metrics) {
  CycleOutcome outcome;
  if (Muted()) return outcome;
  const double U = CurrentU();

  // Monitoring phase in 1-d: sampled sites check the sign of d_C.
  distances_.resize(num_sites_);
  first_trial_.clear();
  first_trial_g_.clear();
  bool alarm = false;
  for (int i = 0; i < num_sites_; ++i) {
    // e + Δv_i, summed in the same order as `e_ + Drift(i, ...)`.
    Drift(i, local_vectors, &drift_);
    position_ = e_;
    position_ += drift_;
    distances_[i] = zone_->SignedDistance(position_);
    const double g = sampling_->ProbabilityCV(U, distances_[i]);
    const TrialDraw draw =
        DrawTrials(options_.seed, i, absolute_cycle_, g, effective_trials_);
    if (draw.first_trial) {
      first_trial_.push_back(i);
      first_trial_g_.push_back(g);
    }
    if (draw.any_trial && distances_[i] >= 0.0) alarm = true;
  }
  if (!alarm) return outcome;
  outcome.local_alarm = true;

  // Adaptive re-anchoring (see CvsgmOptions).
  if (ReanchorInsteadOfProbe(alarm_streak_ + 1,
                             options_.escalate_after_consecutive_alarms,
                             first_trial_.size(),
                             options_.escalate_probe_fraction, num_sites_)) {
    FullSync(local_vectors, metrics, /*already_collected=*/0);
    outcome.full_sync = true;
    return outcome;
  }

  // 1. Partial probe: first-trial scalars + HT estimate D̂_C.
  metrics->AddBroadcast(0);
  metrics->AddSiteMessages(static_cast<long>(first_trial_.size()),
                           /*doubles_each=*/1);
  HtScalarEstimator estimator(num_sites_);
  for (std::size_t k = 0; k < first_trial_.size(); ++k) {
    estimator.AddSample(distances_[first_trial_[k]], first_trial_g_[k]);
  }
  const double d_hat = estimator.Estimate();
  // ε_C from McDiarmid, capped as in SGM's partial check; ε_C ≤ ε keeps
  // the revised scheme's tighter-error advantage.
  const double epsilon_c = PartialCheckEpsilon(
      McDiarmidEpsilon(options_.delta, U), epsilon_T());
  if (d_hat + epsilon_c <= 0.0) {
    outcome.partial_resolved = true;
    last_alarm_reached_stage2_ = false;
    metrics->OnPartialResolution();
    if (options_.certified_cooldown) {
      Mute(static_cast<long>(std::floor((-d_hat - epsilon_c) / max_step_norm_)),
           metrics);
    }
    return outcome;
  }

  // Two alarms in a row needing the all-sites scalar collection: the 1-d
  // evidence is persistently inconclusive, and each stage-2 round already
  // costs N messages — re-anchor instead (same cost, resets every drift).
  if (last_alarm_reached_stage2_) {
    last_alarm_reached_stage2_ = false;
    FullSync(local_vectors, metrics, /*already_collected=*/0);
    outcome.full_sync = true;
    return outcome;
  }
  last_alarm_reached_stage2_ = true;

  // 2. Preliminary full check, still 1-d: everyone else ships one scalar.
  metrics->AddSiteMessages(
      static_cast<long>(num_sites_) - static_cast<long>(first_trial_.size()),
      /*doubles_each=*/1);
  double exact_sum = 0.0;
  for (int i = 0; i < num_sites_; ++i) exact_sum += distances_[i];
  const double exact_dc = exact_sum / static_cast<double>(num_sites_);
  if (exact_dc < 0.0) {
    // Corollary 1: the global average is certainly inside C — an FP
    // resolved without any d-dimensional transmission. The exact D_C also
    // certifies a mute with no δ-qualification at all.
    outcome.resolved_1d = true;
    metrics->OnOneDResolution();
    if (options_.certified_cooldown) {
      Mute(static_cast<long>(std::floor(-exact_dc / max_step_norm_)),
           metrics);
    }
    return outcome;
  }

  // 3. Full synchronization: the scalars do not substitute for vectors.
  FullSync(local_vectors, metrics, /*already_collected=*/0);
  outcome.full_sync = true;
  return outcome;
}

}  // namespace sgm

#include "estimators/sampling.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace sgm {

namespace {

double LogInverse(double delta) {
  SGM_CHECK_MSG(delta > 0.0 && delta < 1.0, "delta must lie in (0, 1)");
  return std::log(1.0 / delta);
}

double CheckedSqrtN(int num_sites) {
  SGM_CHECK(num_sites > 0);
  return std::sqrt(static_cast<double>(num_sites));
}

}  // namespace

SamplingScale::SamplingScale(double delta, int num_sites)
    : log_inverse_delta_(LogInverse(delta)),
      sqrt_num_sites_(CheckedSqrtN(num_sites)) {}

double SamplingScale::Probability(double U, double drift_norm) const {
  SGM_CHECK(U > 0.0);
  SGM_CHECK(drift_norm >= 0.0);
  const double g = drift_norm * log_inverse_delta_ / (U * sqrt_num_sites_);
  return std::clamp(g, 0.0, 1.0);
}

double SamplingScale::ProbabilityCV(double U, double signed_distance) const {
  SGM_CHECK(U > 0.0);
  const double g = std::abs(signed_distance) * log_inverse_delta_ /
                   (U * sqrt_num_sites_);
  return std::clamp(g, 0.0, 1.0);
}

double SamplingScale::Uniform() const {
  return std::clamp(log_inverse_delta_ / sqrt_num_sites_, 0.0, 1.0);
}

double SamplingProbability(double delta, double U, int num_sites,
                           double drift_norm) {
  return SamplingScale(delta, num_sites).Probability(U, drift_norm);
}

double SamplingProbabilityCV(double delta, double U, int num_sites,
                             double signed_distance) {
  return SamplingScale(delta, num_sites).ProbabilityCV(U, signed_distance);
}

double BernoulliSamplingProbability(double delta, int num_sites) {
  return SamplingScale(delta, num_sites).Uniform();
}

double ExpectedSampleBound(double delta, int num_sites) {
  return LogInverse(delta) * CheckedSqrtN(num_sites);
}

double SingleTrialFailureBound(double delta, int num_sites) {
  return LogInverse(delta) / CheckedSqrtN(num_sites) +
         1.0 / static_cast<double>(num_sites);
}

int NumTrials(double delta, int num_sites) {
  const double bound = SingleTrialFailureBound(delta, num_sites);
  SGM_CHECK_MSG(bound < 1.0,
                "Lemma 2(c) requires ln(1/delta)/sqrt(N) + 1/N < 1; "
                "increase N or delta");
  const int m = static_cast<int>(
      std::ceil(std::log(0.01) / std::log(bound)));
  return std::max(1, m);
}

double TrackingFailureProbability(double delta, int num_sites,
                                  int num_trials) {
  SGM_CHECK(num_trials >= 1);
  return std::pow(SingleTrialFailureBound(delta, num_sites), num_trials);
}

int NumTrialsCV(double delta, int num_sites) {
  const double exponent =
      0.042 * std::sqrt(LogInverse(delta) * static_cast<double>(num_sites));
  SGM_CHECK_MSG(exponent > 0.0, "invalid CV trial-count parameters");
  // log(0.01) / log(e^{-exponent}) = ln(0.01) / (-exponent).
  const int m =
      static_cast<int>(std::ceil(std::log(0.01) / (-exponent)));
  return std::max(1, m);
}

double FalseNegativeBound(double delta, int num_sites, int num_trials,
                          int num_crossing_sites, double epsilon_T, double U) {
  SGM_CHECK(U > 0.0);
  SGM_CHECK(epsilon_T >= 0.0);
  SGM_CHECK(num_trials >= 1);
  SGM_CHECK(num_crossing_sites >= 0);
  const double exponent = static_cast<double>(num_crossing_sites) *
                          static_cast<double>(num_trials) * epsilon_T /
                          (U * CheckedSqrtN(num_sites));
  return std::pow(delta, exponent);
}

}  // namespace sgm

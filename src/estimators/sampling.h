#ifndef SGM_ESTIMATORS_SAMPLING_H_
#define SGM_ESTIMATORS_SAMPLING_H_

namespace sgm {

/// The sampling functions and trial-count formulas of Sections 2.2, 3 & 4.2.

/// The sampling functions of one deployment, whose δ and N are fixed:
/// ln(1/δ) and √N are computed once, at construction, so a site's
/// per-cycle g_i costs a multiply, a divide and a clamp. Every protocol
/// that samples calls these; the free functions below are their one-shot
/// forms and give the same doubles.
class SamplingScale {
 public:
  /// SGM_CHECKs δ ∈ (0, 1) and N > 0.
  SamplingScale(double delta, int num_sites);

  /// g_i = ‖Δv_i‖·ln(1/δ) / (U·√N), clamped to [0, 1] (Equation 4).
  ///
  /// The drift-norm weighting is the design heart of the scheme: sites
  /// whose local vectors have drifted far since the last synchronization —
  /// exactly the ones able to pull the global average across the threshold
  /// — are proportionally more likely to include themselves in the sample.
  double Probability(double U, double drift_norm) const;

  /// g_i^C = |d_C(e+Δv_i)|·ln(1/δ) / (U·√N), clamped to [0, 1]
  /// (Equation 9).
  double ProbabilityCV(double U, double signed_distance) const;

  /// g = ln(1/δ)/√N, clamped to [0, 1]: the Bernoulli baseline.
  double Uniform() const;

 private:
  double log_inverse_delta_;
  double sqrt_num_sites_;
};

/// SamplingScale(delta, num_sites).Probability(U, drift_norm).
double SamplingProbability(double delta, double U, int num_sites,
                           double drift_norm);

/// SamplingScale(delta, num_sites).ProbabilityCV(U, signed_distance).
double SamplingProbabilityCV(double delta, double U, int num_sites,
                             double signed_distance);

/// Uniform Bernoulli baseline of Section 6.5: g = ln(1/δ)/√N, same expected
/// sample size as the drift-weighted scheme, no drift information
/// (SamplingScale(delta, num_sites).Uniform()).
double BernoulliSamplingProbability(double delta, int num_sites);

/// Per-trial expected-sample-size bound ln(1/δ)·√N (Lemma 2(c) premise).
double ExpectedSampleBound(double delta, int num_sites);

/// Upper bound on the probability that a single trial fails to place the
/// trial's estimator inside the un-scaled GM balls: ln(1/δ)/√N + 1/N
/// (proof of Lemma 2(c), via Markov on |K|/(N·g_i)).
double SingleTrialFailureBound(double delta, int num_sites);

/// M — the Lemma 2(c) trial count: smallest M with failure bound^M ≤ 0.01,
/// i.e. ceil(log 0.01 / log(ln(1/δ)/√N + 1/N)); at least 1. Valid (and
/// SGM_CHECKed) only when the single-trial bound is < 1, which is the
/// highly-distributed regime the paper targets.
int NumTrials(double delta, int num_sites);

/// Residual failure probability after M trials (Table 2, last column).
double TrackingFailureProbability(double delta, int num_sites, int num_trials);

/// M for the revised CV scheme (Lemma 5):
/// ceil(log 0.01 / log(exp(−0.042·√(ln(1/δ)·N)))).
int NumTrialsCV(double delta, int num_sites);

/// Worst-case FN bound of Lemma 3/5's second case: δ^(|Z|·M·ε_T/(U·√N)).
double FalseNegativeBound(double delta, int num_sites, int num_trials,
                          int num_crossing_sites, double epsilon_T, double U);

}  // namespace sgm

#endif  // SGM_ESTIMATORS_SAMPLING_H_

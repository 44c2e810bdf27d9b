#include "estimators/sampling.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

namespace sgm {
namespace {

TEST(SamplingTest, FormulaMatchesEquation4) {
  // g_i = ‖Δv_i‖ ln(1/δ) / (U √N).
  const double g = SamplingProbability(0.1, 10.0, 100, 2.0);
  EXPECT_NEAR(g, 2.0 * std::log(10.0) / (10.0 * 10.0), 1e-12);
}

TEST(SamplingTest, ZeroDriftZeroProbability) {
  EXPECT_EQ(SamplingProbability(0.1, 10.0, 100, 0.0), 0.0);
}

TEST(SamplingTest, ClampedToOne) {
  EXPECT_EQ(SamplingProbability(0.01, 0.1, 4, 100.0), 1.0);
}

TEST(SamplingTest, Example3Ranges) {
  // Paper Example 3 table: δ = 0.1, N = 100, U = 17.3·... — the g_i range
  // upper ends: ‖Δv_i‖ ≤ √3·10 = U gives g_max = ln(1/δ)/√N.
  EXPECT_NEAR(SamplingProbability(0.1, 17.3, 100, 17.3),
              std::log(10.0) / 10.0, 1e-9);  // ≈ 0.23
  EXPECT_NEAR(SamplingProbability(0.05, 17.3, 961, 17.3),
              std::log(20.0) / 31.0, 1e-9);  // ≈ 0.097
}

TEST(SamplingTest, MonotoneInDriftAndDelta) {
  EXPECT_LT(SamplingProbability(0.1, 10.0, 100, 1.0),
            SamplingProbability(0.1, 10.0, 100, 2.0));
  // Smaller δ → larger g (paper: fewer FNs requires more sampling).
  EXPECT_LT(SamplingProbability(0.2, 10.0, 100, 1.0),
            SamplingProbability(0.05, 10.0, 100, 1.0));
}

TEST(SamplingTest, CvVariantUsesAbsoluteDistance) {
  EXPECT_EQ(SamplingProbabilityCV(0.1, 10.0, 100, -2.0),
            SamplingProbabilityCV(0.1, 10.0, 100, 2.0));
  EXPECT_EQ(SamplingProbabilityCV(0.1, 10.0, 100, -2.0),
            SamplingProbability(0.1, 10.0, 100, 2.0));
}

TEST(SamplingTest, PrecomputedScaleGivesTheFormulasDoubles) {
  // A deployment computes ln(1/δ) and √N once; every g_i it then gives
  // must be, bit for bit, the double the formula gives from scratch.
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  const double huge = std::numeric_limits<double>::max();
  const double inf = std::numeric_limits<double>::infinity();
  const double norms[] = {0.0, 1e-300, 1e-6, 0.25, 1.0, 2.0, 17.3, 1e3,
                          1e300, huge, inf};
  const double bounds[] = {1e-9, 0.1, 1.0, 17.3, 1e6};
  for (const double delta : {1e-6, 0.01, 0.1, 0.5, 0.999}) {
    for (const int n : {1, 2, 3, 500, 2048, 8192}) {
      const SamplingScale scale(delta, n);
      const double uniform =
          std::clamp(std::log(1.0 / delta) / std::sqrt(n), 0.0, 1.0);
      EXPECT_TRUE(same_bits(scale.Uniform(), uniform));
      EXPECT_TRUE(same_bits(BernoulliSamplingProbability(delta, n), uniform));
      for (const double U : bounds) {
        for (const double norm : norms) {
          SCOPED_TRACE(testing::Message() << "delta " << delta << " N " << n
                                          << " U " << U << " norm " << norm);
          const double g = std::clamp(
              norm * std::log(1.0 / delta) / (U * std::sqrt(n)), 0.0, 1.0);
          EXPECT_TRUE(same_bits(scale.Probability(U, norm), g));
          EXPECT_TRUE(same_bits(SamplingProbability(delta, U, n, norm), g));
          EXPECT_TRUE(same_bits(scale.ProbabilityCV(U, -norm), g));
          EXPECT_TRUE(same_bits(SamplingProbabilityCV(delta, U, n, norm), g));
        }
      }
    }
  }
  // The grid reaches both ends of [0, 1].
  EXPECT_EQ(SamplingScale(0.1, 500).Probability(1e-9, huge), 1.0);
  EXPECT_EQ(SamplingScale(0.999, 8192).Probability(1e6, 0.0), 0.0);
}

TEST(SamplingTest, BernoulliMatchesExpectedSampleSize) {
  // N · g = ln(1/δ)√N — same expected size as the drift-weighted bound.
  const double g = BernoulliSamplingProbability(0.1, 400);
  EXPECT_NEAR(400.0 * g, ExpectedSampleBound(0.1, 400), 1e-9);
}

TEST(SamplingTest, ExpectedSampleBoundSqrtN) {
  EXPECT_NEAR(ExpectedSampleBound(0.1, 100), std::log(10.0) * 10.0, 1e-12);
  // Paper Example-3 table: δ=0.1, N=100 → 24 (they round ln(10)·10 ≈ 23.03).
  EXPECT_NEAR(ExpectedSampleBound(0.1, 100), 23.03, 0.01);
  EXPECT_NEAR(ExpectedSampleBound(0.05, 961), 92.9, 0.1);  // table: 93
}

TEST(SamplingTest, SampleBoundSublinearInN) {
  // The ratio bound/N must shrink with N (the paper's scalability point).
  const double ratio_small = ExpectedSampleBound(0.1, 100) / 100.0;
  const double ratio_large = ExpectedSampleBound(0.1, 10000) / 10000.0;
  EXPECT_LT(ratio_large, ratio_small);
}

// ----------------------------------------------------------- trial counts --

struct Table2Row {
  double delta;
  int num_sites;
  int expected_m;
};

class Table2Test : public ::testing::TestWithParam<Table2Row> {};

// The paper's Table 2: M values for (δ, N).
TEST_P(Table2Test, MatchesPaper) {
  const Table2Row row = GetParam();
  EXPECT_EQ(NumTrials(row.delta, row.num_sites), row.expected_m);
}

// The residual failure probability after M trials must be ≤ 0.01 and match
// the table's order of magnitude.
TEST_P(Table2Test, FailureBelowOnePercent) {
  const Table2Row row = GetParam();
  const int m = NumTrials(row.delta, row.num_sites);
  EXPECT_LE(TrackingFailureProbability(row.delta, row.num_sites, m), 0.01);
}

// Expected M per the ceiling in Lemma 2(c). These match the paper's Table 2
// except (δ=0.1, N=500), where the raw value 2.04 ceils to 3 while the
// paper's "~M" column reports the rounded 2 (its failure column, 0.01,
// confirms they used M = 2 there).
INSTANTIATE_TEST_SUITE_P(PaperTable2, Table2Test,
                         ::testing::Values(Table2Row{0.05, 100, 4},
                                           Table2Row{0.05, 500, 3},
                                           Table2Row{0.05, 1000, 2},
                                           Table2Row{0.1, 100, 4},
                                           Table2Row{0.1, 500, 3},
                                           Table2Row{0.1, 1000, 2},
                                           Table2Row{0.2, 100, 3},
                                           Table2Row{0.2, 500, 2},
                                           Table2Row{0.2, 1000, 2}));

TEST(SamplingTest, TrialsShrinkWithN) {
  EXPECT_GE(NumTrials(0.1, 100), NumTrials(0.1, 1000));
  EXPECT_GE(NumTrials(0.1, 1000), NumTrials(0.1, 100000));
}

TEST(SamplingTest, CvTrialsShrinkWithDelta) {
  // Figure 8's inversion vs Figure 3: in the CV scheme smaller δ → larger
  // expected |K| → fewer trials needed.
  EXPECT_GE(NumTrialsCV(0.2, 500), NumTrialsCV(0.05, 500));
}

TEST(SamplingTest, CvTrialsPracticalRange) {
  // Figure 8: 2–4 trials suffice in highly distributed settings.
  for (int n : {500, 1000, 5000}) {
    for (double delta : {0.05, 0.1, 0.2}) {
      const int m = NumTrialsCV(delta, n);
      EXPECT_GE(m, 1);
      EXPECT_LE(m, 6) << "n=" << n << " delta=" << delta;
    }
  }
}

// ------------------------------------------------------------- FN bounds --

TEST(FalseNegativeBoundTest, DecreasesWithCrossingSites) {
  const double one = FalseNegativeBound(0.1, 400, 1, 1, 5.0, 10.0);
  const double many = FalseNegativeBound(0.1, 400, 1, 50, 5.0, 10.0);
  EXPECT_LT(many, one);
}

TEST(FalseNegativeBoundTest, DecreasesWithTrials) {
  EXPECT_LT(FalseNegativeBound(0.1, 400, 4, 5, 5.0, 10.0),
            FalseNegativeBound(0.1, 400, 1, 5, 5.0, 10.0));
}

TEST(FalseNegativeBoundTest, NoCrossingSitesGivesTrivialBound) {
  EXPECT_DOUBLE_EQ(FalseNegativeBound(0.1, 400, 1, 0, 5.0, 10.0), 1.0);
}

TEST(FalseNegativeBoundTest, MatchesClosedForm) {
  // δ^(|Z|·M·ε_T/(U·√N)).
  const double bound = FalseNegativeBound(0.1, 100, 2, 3, 4.0, 8.0);
  EXPECT_NEAR(bound, std::pow(0.1, 3.0 * 2.0 * 4.0 / (8.0 * 10.0)), 1e-12);
}

}  // namespace
}  // namespace sgm

// Tests of the sampling coin both tiers flip (estimators/sgm_rules.h): the
// share of coins below g matches g within a binomial bound, coins whose keys
// differ by one site, cycle or trial are uncorrelated, and DrawTrials turns
// them into the trial flags Lemma 2 asks for.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "estimators/sgm_rules.h"

namespace sgm {
namespace {

// Keys span 64 sites × 64 cycles × 64 trials, and each axis reaches past
// one of its low-order bits' boundaries.
constexpr int kSites = 64;
constexpr long kCycles = 64;
constexpr int kTrials = 64;
constexpr double kKeys = static_cast<double>(kSites * kCycles * kTrials);
const std::uint64_t kSeeds[] = {99, 2024, 0xfeedfacecafebeefULL};

/// Coins indexed [site][cycle][trial], with one extra slot on every axis so
/// that each key has a neighbour along it.
std::vector<double> Coins(std::uint64_t seed) {
  std::vector<double> coins;
  coins.reserve((kSites + 1) * (kCycles + 1) * (kTrials + 1));
  for (int site = 0; site <= kSites; ++site) {
    for (long cycle = 0; cycle <= kCycles; ++cycle) {
      for (int trial = 0; trial <= kTrials; ++trial) {
        coins.push_back(CoinUniform(seed, site, cycle, trial));
      }
    }
  }
  return coins;
}

std::size_t Index(int site, long cycle, int trial) {
  return (static_cast<std::size_t>(site) * (kCycles + 1) +
          static_cast<std::size_t>(cycle)) *
             (kTrials + 1) +
         static_cast<std::size_t>(trial);
}

TEST(SamplingCoinTest, ShareBelowGMatchesG) {
  const double buckets[] = {0.001, 0.01, 0.05, 0.1, 0.25,
                            0.5,   0.75, 0.9,  0.99};
  for (const std::uint64_t seed : kSeeds) {
    const std::vector<double> coins = Coins(seed);
    for (const double g : buckets) {
      long below = 0;
      for (int site = 0; site < kSites; ++site) {
        for (long cycle = 0; cycle < kCycles; ++cycle) {
          for (int trial = 0; trial < kTrials; ++trial) {
            const double u = coins[Index(site, cycle, trial)];
            ASSERT_GE(u, 0.0);
            ASSERT_LT(u, 1.0);
            if (u < g) ++below;
          }
        }
      }
      // Five binomial standard deviations.
      const double bound = 5.0 * std::sqrt(kKeys * g * (1.0 - g));
      EXPECT_NEAR(static_cast<double>(below), kKeys * g, bound)
          << "seed " << seed << " g " << g;
    }
  }
}

TEST(SamplingCoinTest, NeighbouringKeysAreUncorrelated) {
  // Pearson correlation between each coin and its neighbour one site, one
  // cycle or one trial away, held to four standard errors, 4/√n.
  const double bound = 4.0 / std::sqrt(kKeys);
  for (const std::uint64_t seed : kSeeds) {
    const std::vector<double> coins = Coins(seed);
    const struct {
      const char* axis;
      int site;
      long cycle;
      int trial;
    } steps[] = {{"site", 1, 0, 0}, {"cycle", 0, 1, 0}, {"trial", 0, 0, 1}};
    for (const auto& step : steps) {
      double sum_a = 0.0, sum_b = 0.0, sum_ab = 0.0, sum_aa = 0.0,
             sum_bb = 0.0;
      for (int site = 0; site < kSites; ++site) {
        for (long cycle = 0; cycle < kCycles; ++cycle) {
          for (int trial = 0; trial < kTrials; ++trial) {
            const double a = coins[Index(site, cycle, trial)];
            const double b = coins[Index(site + step.site, cycle + step.cycle,
                                         trial + step.trial)];
            sum_a += a;
            sum_b += b;
            sum_ab += a * b;
            sum_aa += a * a;
            sum_bb += b * b;
          }
        }
      }
      const double cov = sum_ab / kKeys - (sum_a / kKeys) * (sum_b / kKeys);
      const double var_a = sum_aa / kKeys - (sum_a / kKeys) * (sum_a / kKeys);
      const double var_b = sum_bb / kKeys - (sum_b / kKeys) * (sum_b / kKeys);
      EXPECT_LT(std::abs(cov / std::sqrt(var_a * var_b)), bound)
          << "seed " << seed << " axis " << step.axis;
    }
  }
}

TEST(SamplingCoinTest, CoinIsAPureFunctionOfItsKey) {
  EXPECT_EQ(CoinUniform(7, 3, 11, 2), CoinUniform(7, 3, 11, 2));
  EXPECT_NE(CoinUniform(7, 3, 11, 2), CoinUniform(8, 3, 11, 2));
  // The cycle's low bits and the trial do not alias.
  EXPECT_NE(CoinUniform(7, 3, 1, 0), CoinUniform(7, 3, 0, 1 << 15));
  EXPECT_NE(CoinUniform(7, 3, 1, 0),
            CoinUniform(7, 3, 0, kMaxSamplingTrials - 1));
}

TEST(DrawTrialsTest, ClampsLikeABernoulliTrial) {
  for (long cycle = 0; cycle < 100; ++cycle) {
    const TrialDraw never = DrawTrials(5, 1, cycle, 0.0, 4);
    EXPECT_FALSE(never.first_trial);
    EXPECT_FALSE(never.any_trial);
    EXPECT_FALSE(DrawTrials(5, 1, cycle, -0.5, 4).any_trial);
    const TrialDraw always = DrawTrials(5, 1, cycle, 1.0, 4);
    EXPECT_TRUE(always.first_trial);
    EXPECT_TRUE(always.any_trial);
    EXPECT_TRUE(DrawTrials(5, 1, cycle, 1.5, 1).first_trial);
  }
}

TEST(DrawTrialsTest, FlagsFollowTheCoins) {
  // Trial 1 samples with probability g and some trial of M with
  // 1 − (1 − g)^M; each flag is the coins' verdict, site by site.
  constexpr int kM = 3;
  constexpr double kG = 0.2;
  long first = 0;
  long any = 0;
  const long draws = 400L * 500L;
  for (int site = 0; site < 400; ++site) {
    for (long cycle = 0; cycle < 500; ++cycle) {
      const TrialDraw draw = DrawTrials(2024, site, cycle, kG, kM);
      bool expect_any = false;
      for (int trial = 0; trial < kM; ++trial) {
        expect_any = expect_any || CoinUniform(2024, site, cycle, trial) < kG;
      }
      ASSERT_EQ(draw.first_trial, CoinUniform(2024, site, cycle, 0) < kG);
      ASSERT_EQ(draw.any_trial, expect_any);
      first += draw.first_trial;
      any += draw.any_trial;
    }
  }
  const double p_any = 1.0 - std::pow(1.0 - kG, kM);
  EXPECT_NEAR(static_cast<double>(first), draws * kG,
              5.0 * std::sqrt(draws * kG * (1.0 - kG)));
  EXPECT_NEAR(static_cast<double>(any), draws * p_any,
              5.0 * std::sqrt(draws * p_any * (1.0 - p_any)));
}

}  // namespace
}  // namespace sgm

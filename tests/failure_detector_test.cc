// Unit tests of the coordinator-side failure detector: miss-count
// escalation, liveness piggybacking, transport give-up handling, the rejoin
// lifecycle, and flap quarantine (see docs/DESIGN.md).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "runtime/failure_detector.h"

namespace sgm {
namespace {

FailureDetectorConfig SmallConfig() {
  FailureDetectorConfig config;
  config.suspect_after_misses = 2;
  config.dead_after_misses = 4;
  config.flap_death_threshold = 2;
  config.flap_window_cycles = 20;
  config.quarantine_cycles = 5;
  return config;
}

TEST(FailureDetectorTest, StartsAllAlive) {
  FailureDetector fd(3, SmallConfig());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(fd.state(i), FailureDetector::State::kAlive);
    EXPECT_TRUE(fd.IsLive(i));
    EXPECT_FALSE(fd.IsQuarantined(i));
  }
  EXPECT_EQ(fd.live_count(), 3);
  EXPECT_EQ(fd.total_deaths(), 0);
}

TEST(FailureDetectorTest, MissesEscalateSuspectThenDead) {
  FailureDetector fd(2, SmallConfig());
  long cycle = 0;
  // Site 1 keeps talking; site 0 goes silent.
  for (int i = 0; i < 2; ++i) {
    fd.BeginCycle(++cycle);
    fd.RecordAlive(1);
  }
  EXPECT_EQ(fd.state(0), FailureDetector::State::kAlive);
  fd.BeginCycle(++cycle);  // miss 3 > suspect_after_misses
  fd.RecordAlive(1);
  EXPECT_EQ(fd.state(0), FailureDetector::State::kSuspect);
  EXPECT_TRUE(fd.IsLive(0));  // suspects stay in the sample pool
  EXPECT_EQ(fd.live_count(), 2);

  fd.BeginCycle(++cycle);
  fd.BeginCycle(++cycle);  // miss 5 > dead_after_misses
  EXPECT_EQ(fd.state(0), FailureDetector::State::kDead);
  EXPECT_FALSE(fd.IsLive(0));
  EXPECT_EQ(fd.live_count(), 1);
  EXPECT_EQ(fd.deaths(0), 1);
  EXPECT_EQ(fd.state(1), FailureDetector::State::kAlive);
}

TEST(FailureDetectorTest, HearingFromSuspectRevivesIt) {
  FailureDetector fd(1, SmallConfig());
  for (long c = 1; c <= 3; ++c) fd.BeginCycle(c);
  ASSERT_EQ(fd.state(0), FailureDetector::State::kSuspect);
  fd.RecordAlive(0);
  EXPECT_EQ(fd.state(0), FailureDetector::State::kAlive);
  // ...and the miss count restarts from the revival cycle.
  fd.BeginCycle(4);
  EXPECT_EQ(fd.state(0), FailureDetector::State::kAlive);
}

TEST(FailureDetectorTest, DeadSiteIgnoresPlainTraffic) {
  FailureDetector fd(1, SmallConfig());
  fd.BeginCycle(1);
  fd.ReportUnreachable(0);
  ASSERT_EQ(fd.state(0), FailureDetector::State::kDead);
  // Only the rejoin handshake revives a dead site.
  fd.RecordAlive(0);
  EXPECT_EQ(fd.state(0), FailureDetector::State::kDead);
}

TEST(FailureDetectorTest, ReportUnreachableIsInstantDeath) {
  FailureDetector fd(2, SmallConfig());
  fd.BeginCycle(1);
  fd.ReportUnreachable(1);
  EXPECT_EQ(fd.state(1), FailureDetector::State::kDead);
  EXPECT_EQ(fd.deaths(1), 1);
  EXPECT_EQ(fd.live_count(), 1);
}

TEST(FailureDetectorTest, RejoinLifecycle) {
  FailureDetector fd(1, SmallConfig());
  fd.BeginCycle(1);
  fd.ReportUnreachable(0);
  fd.BeginRejoin(0);
  EXPECT_EQ(fd.state(0), FailureDetector::State::kRejoining);
  EXPECT_FALSE(fd.IsLive(0));  // not in the sample pool until complete
  fd.CompleteRejoin(0);
  EXPECT_EQ(fd.state(0), FailureDetector::State::kAlive);
  EXPECT_TRUE(fd.IsLive(0));
  // Rejoin resets the miss clock: no immediate re-suspicion.
  fd.BeginCycle(2);
  EXPECT_EQ(fd.state(0), FailureDetector::State::kAlive);
}

TEST(FailureDetectorTest, RepeatedDeathsQuarantine) {
  FailureDetector fd(1, SmallConfig());
  // Two deaths inside the 20-cycle flap window (threshold 2).
  fd.BeginCycle(1);
  fd.ReportUnreachable(0);
  fd.BeginRejoin(0);
  fd.CompleteRejoin(0);
  EXPECT_FALSE(fd.IsQuarantined(0));
  fd.BeginCycle(2);
  fd.ReportUnreachable(0);
  EXPECT_TRUE(fd.IsQuarantined(0));
  // Quarantine defers the rejoin for quarantine_cycles, then expires.
  for (long c = 3; c <= 7; ++c) fd.BeginCycle(c);
  EXPECT_TRUE(fd.IsQuarantined(0));
  fd.BeginCycle(8);
  EXPECT_FALSE(fd.IsQuarantined(0));
}

TEST(FailureDetectorTest, SlowDeathsDoNotQuarantine) {
  FailureDetectorConfig config = SmallConfig();
  config.flap_window_cycles = 3;  // deaths 10 cycles apart fall outside
  FailureDetector fd(1, config);
  fd.BeginCycle(1);
  fd.ReportUnreachable(0);
  fd.BeginRejoin(0);
  fd.CompleteRejoin(0);
  fd.BeginCycle(11);
  fd.ReportUnreachable(0);
  EXPECT_FALSE(fd.IsQuarantined(0));
  EXPECT_EQ(fd.deaths(0), 2);
  EXPECT_EQ(fd.total_deaths(), 2);
}

TEST(FailureDetectorTest, ZeroJitterAppliesExactConfiguredThresholds) {
  FailureDetector fd(4, SmallConfig());
  for (int site = 0; site < 4; ++site) {
    EXPECT_EQ(fd.suspect_after(site), 2);
    EXPECT_EQ(fd.dead_after(site), 4);
    EXPECT_EQ(fd.quarantine_cycles(site), 5);
  }
}

TEST(FailureDetectorTest, JitteredThresholdsAreSeedDeterministic) {
  FailureDetectorConfig config = SmallConfig();
  config.suspect_after_misses = 20;
  config.dead_after_misses = 40;
  config.quarantine_cycles = 100;
  config.threshold_jitter = 0.3;
  config.jitter_seed = 77;
  FailureDetector a(16, config);
  FailureDetector b(16, config);
  bool any_differs_across_sites = false;
  for (int site = 0; site < 16; ++site) {
    // Same seed → identical per-site thresholds (replayable).
    EXPECT_EQ(a.suspect_after(site), b.suspect_after(site));
    EXPECT_EQ(a.dead_after(site), b.dead_after(site));
    EXPECT_EQ(a.quarantine_cycles(site), b.quarantine_cycles(site));
    if (a.suspect_after(site) != a.suspect_after(0) ||
        a.dead_after(site) != a.dead_after(0)) {
      any_differs_across_sites = true;
    }
  }
  // The point of jitter is desynchronization: with 16 sites and ±30%
  // on a base of 20/40 the thresholds cannot all collapse to one value.
  EXPECT_TRUE(any_differs_across_sites);

  FailureDetectorConfig other = config;
  other.jitter_seed = 78;
  FailureDetector c(16, other);
  bool any_differs_across_seeds = false;
  for (int site = 0; site < 16; ++site) {
    if (a.suspect_after(site) != c.suspect_after(site)) {
      any_differs_across_seeds = true;
    }
  }
  EXPECT_TRUE(any_differs_across_seeds);
}

TEST(FailureDetectorTest, JitteredThresholdsStayWithinConfiguredBand) {
  FailureDetectorConfig config = SmallConfig();
  config.suspect_after_misses = 20;
  config.dead_after_misses = 40;
  config.quarantine_cycles = 100;
  config.threshold_jitter = 0.25;
  FailureDetector fd(64, config);
  for (int site = 0; site < 64; ++site) {
    EXPECT_GE(fd.suspect_after(site), 15);
    EXPECT_LE(fd.suspect_after(site), 25);
    EXPECT_GE(fd.dead_after(site), 30);
    EXPECT_LE(fd.dead_after(site), 50);
    EXPECT_GE(fd.quarantine_cycles(site), 75);
    EXPECT_LE(fd.quarantine_cycles(site), 125);
    // Dead must stay strictly above suspect or the kSuspect state vanishes.
    EXPECT_GT(fd.dead_after(site), fd.suspect_after(site));
  }
}

TEST(FailureDetectorTest, SnapshotRestoreRecomputesJitteredThresholds) {
  FailureDetectorConfig config = SmallConfig();
  config.threshold_jitter = 0.4;
  config.suspect_after_misses = 10;
  config.dead_after_misses = 20;
  FailureDetector fd(8, config);
  fd.BeginCycle(1);
  fd.ReportUnreachable(3);
  const auto snapshot = fd.Snapshot();

  // Thresholds are a pure function of the config — a recovered detector
  // lands on the same per-site values without them being checkpointed.
  FailureDetector recovered(8, config);
  recovered.Restore(snapshot, 1);
  for (int site = 0; site < 8; ++site) {
    EXPECT_EQ(recovered.suspect_after(site), fd.suspect_after(site));
    EXPECT_EQ(recovered.dead_after(site), fd.dead_after(site));
    EXPECT_EQ(recovered.quarantine_cycles(site), fd.quarantine_cycles(site));
    EXPECT_EQ(recovered.state(site), fd.state(site));
  }
  EXPECT_EQ(recovered.deaths(3), 1);
}

TEST(FailureDetectorTest, LaggingVerdictAfterConsecutiveDeadlineMisses) {
  FailureDetector fd(2, SmallConfig());  // lagging_after_deadline_misses = 2
  fd.BeginCycle(1);
  fd.RecordAlive(0);
  fd.RecordAlive(1);
  EXPECT_FALSE(fd.RecordMissedDeadline(0));  // miss 1 of 2: no verdict yet
  EXPECT_EQ(fd.state(0), FailureDetector::State::kAlive);
  fd.BeginCycle(2);
  fd.RecordAlive(1);
  // The transition happens exactly on the call that crosses the threshold.
  EXPECT_TRUE(fd.RecordMissedDeadline(0));
  EXPECT_EQ(fd.state(0), FailureDetector::State::kLagging);
  // Lagging is like dead for membership: out of the HT sample pool, but a
  // distinct verdict with its own counters and an open staleness window.
  EXPECT_FALSE(fd.IsLive(0));
  EXPECT_EQ(fd.live_count(), 1);
  EXPECT_EQ(fd.lagging_count(), 1);
  EXPECT_EQ(fd.total_lagging_verdicts(), 1);
  EXPECT_EQ(fd.lagging_since(0), 2);
  EXPECT_EQ(fd.deaths(0), 0);  // a straggler is not a death
  // Further misses keep the existing verdict instead of stacking new ones.
  EXPECT_FALSE(fd.RecordMissedDeadline(0));
  EXPECT_EQ(fd.total_lagging_verdicts(), 1);
}

TEST(FailureDetectorTest, DeadlineMetResetsConsecutiveMisses) {
  FailureDetector fd(1, SmallConfig());
  fd.BeginCycle(1);
  fd.RecordAlive(0);
  EXPECT_FALSE(fd.RecordMissedDeadline(0));
  fd.RecordDeadlineMet(0);  // made the next barrier: clean slate
  fd.BeginCycle(2);
  fd.RecordAlive(0);
  EXPECT_FALSE(fd.RecordMissedDeadline(0));  // miss 1 again, not miss 2
  EXPECT_EQ(fd.state(0), FailureDetector::State::kAlive);
  EXPECT_TRUE(fd.RecordMissedDeadline(0));
  EXPECT_EQ(fd.state(0), FailureDetector::State::kLagging);
}

TEST(FailureDetectorTest, DeadAndRejoiningSitesDoNotAccrueDeadlineMisses) {
  FailureDetector fd(1, SmallConfig());
  fd.BeginCycle(1);
  fd.ReportUnreachable(0);
  EXPECT_FALSE(fd.RecordMissedDeadline(0));
  EXPECT_FALSE(fd.RecordMissedDeadline(0));
  EXPECT_EQ(fd.state(0), FailureDetector::State::kDead);
  EXPECT_EQ(fd.total_lagging_verdicts(), 0);
  fd.BeginRejoin(0);
  EXPECT_FALSE(fd.RecordMissedDeadline(0));
  EXPECT_EQ(fd.state(0), FailureDetector::State::kRejoining);
}

TEST(FailureDetectorTest, LaggingRejoinClosesStalenessWindow) {
  FailureDetector fd(1, SmallConfig());
  for (long c = 1; c <= 5; ++c) {  // keep the heartbeat clock warm
    fd.BeginCycle(c);
    fd.RecordAlive(0);
  }
  fd.RecordMissedDeadline(0);
  ASSERT_TRUE(fd.RecordMissedDeadline(0));  // lagging since cycle 5
  // The laggard catches up four cycles later: quarantine lifts through the
  // same rejoin handshake a dead site uses, and the window is accounted.
  fd.BeginCycle(9);
  fd.BeginRejoin(0);
  EXPECT_EQ(fd.state(0), FailureDetector::State::kRejoining);
  fd.CompleteRejoin(0);
  EXPECT_EQ(fd.state(0), FailureDetector::State::kAlive);
  EXPECT_TRUE(fd.IsLive(0));
  EXPECT_EQ(fd.lagging_since(0), -1);
  EXPECT_EQ(fd.staleness_cycles_total(), 4);
  EXPECT_EQ(fd.staleness_cycles_max(), 4);
  // A second, shorter lag accumulates the total but not the max.
  fd.BeginCycle(10);
  fd.RecordMissedDeadline(0);
  ASSERT_TRUE(fd.RecordMissedDeadline(0));
  fd.BeginCycle(12);
  fd.BeginRejoin(0);
  fd.CompleteRejoin(0);
  EXPECT_EQ(fd.staleness_cycles_total(), 6);
  EXPECT_EQ(fd.staleness_cycles_max(), 4);
  EXPECT_EQ(fd.total_lagging_verdicts(), 2);
}

TEST(FailureDetectorTest, LaggingThresholdIsJitteredWithinBand) {
  FailureDetectorConfig config = SmallConfig();
  config.lagging_after_deadline_misses = 20;
  config.threshold_jitter = 0.25;
  config.jitter_seed = 77;
  FailureDetector a(64, config);
  FailureDetector b(64, config);
  bool any_differs = false;
  for (int site = 0; site < 64; ++site) {
    EXPECT_EQ(a.lagging_after(site), b.lagging_after(site));  // replayable
    EXPECT_GE(a.lagging_after(site), 15);
    EXPECT_LE(a.lagging_after(site), 25);
    if (a.lagging_after(site) != a.lagging_after(0)) any_differs = true;
  }
  // Jitter exists to desynchronize verdicts across a slow fleet.
  EXPECT_TRUE(any_differs);
}

TEST(FailureDetectorTest, SnapshotRestorePreservesLaggingVerdict) {
  FailureDetector fd(2, SmallConfig());
  fd.BeginCycle(3);
  fd.RecordAlive(0);
  fd.RecordAlive(1);
  fd.RecordMissedDeadline(1);
  ASSERT_TRUE(fd.RecordMissedDeadline(1));
  const auto snapshot = fd.Snapshot();

  FailureDetector recovered(2, SmallConfig());
  recovered.Restore(snapshot, 7);
  EXPECT_EQ(recovered.state(1), FailureDetector::State::kLagging);
  EXPECT_FALSE(recovered.IsLive(1));
  // The pre-crash staleness window is not durable: the clock restarts at
  // the recovery cycle (under-counted, never guessed).
  EXPECT_EQ(recovered.lagging_since(1), 7);
  recovered.BeginCycle(9);
  recovered.BeginRejoin(1);
  recovered.CompleteRejoin(1);
  EXPECT_EQ(recovered.staleness_cycles_total(), 2);
}

// The live, lagging and death totals are kept current on every state change
// rather than recounted on each read. After every step of seeded random
// walks over every transition, Restore included, they must equal a recount.
TEST(FailureDetectorTest, RunningTotalsMatchARecountAfterEveryTransition) {
  constexpr int kSites = 64;
  FailureDetectorConfig config = SmallConfig();
  config.threshold_jitter = 0.3;
  using State = FailureDetector::State;
  struct Checkpoint {
    std::vector<FailureDetector::SiteSnapshot> sites;
    long cycle;
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    FailureDetector fd(kSites, config);
    Rng rng(seed);
    long cycle = 0;
    std::vector<Checkpoint> checkpoints;
    long restores = 0;
    for (int step = 0; step < 4000; ++step) {
      const int site = static_cast<int>(rng.NextBounded(kSites));
      switch (rng.NextBounded(12)) {
        case 0:
          fd.BeginCycle(++cycle);
          break;
        case 1:
        case 2:
        case 3:
        case 4:
          fd.RecordAlive(site);
          break;
        case 5:
          fd.ReportUnreachable(site);
          break;
        case 6:
          fd.RecordMissedDeadline(site);
          break;
        case 7:
          fd.RecordDeadlineMet(site);
          break;
        case 8:
          fd.BeginRejoin(site);
          break;
        case 9:
          fd.CompleteRejoin(site);
          break;
        default:
          if (checkpoints.empty() || rng.NextBernoulli(0.5)) {
            checkpoints.push_back({fd.Snapshot(), cycle});
          } else {
            const Checkpoint& back =
                checkpoints[rng.NextBounded(checkpoints.size())];
            fd.Restore(back.sites, back.cycle);
            cycle = back.cycle;
            ++restores;
          }
      }
      int live = 0;
      int lagging = 0;
      long deaths = 0;
      for (int s = 0; s < kSites; ++s) {
        if (fd.IsLive(s)) ++live;
        if (fd.state(s) == State::kLagging) ++lagging;
        deaths += fd.deaths(s);
      }
      ASSERT_EQ(fd.live_count(), live) << "seed " << seed << " step " << step;
      ASSERT_EQ(fd.lagging_count(), lagging)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(fd.total_deaths(), deaths)
          << "seed " << seed << " step " << step;
    }
    EXPECT_GT(restores, 0);
    EXPECT_GT(fd.total_deaths(), 0);
  }
}

TEST(FailureDetectorTest, StateNames) {
  EXPECT_STREQ(ToString(FailureDetector::State::kAlive), "alive");
  EXPECT_STREQ(ToString(FailureDetector::State::kSuspect), "suspect");
  EXPECT_STREQ(ToString(FailureDetector::State::kDead), "dead");
  EXPECT_STREQ(ToString(FailureDetector::State::kRejoining), "rejoining");
  EXPECT_STREQ(ToString(FailureDetector::State::kLagging), "lagging");
}

}  // namespace
}  // namespace sgm

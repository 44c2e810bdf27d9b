// Unit tests of the coordinator-side failure detector: miss-count
// escalation, liveness piggybacking, transport give-up handling, the rejoin
// lifecycle, and flap quarantine (see docs/DESIGN.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "obs/telemetry.h"
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
  // Misses are beats of H = ⌈√2⌉ = 2 cycles.
  const long h = fd.heartbeat_interval();
  ASSERT_EQ(h, 2);
  long cycle = 0;
  // Site 1 keeps talking; site 0 goes silent.
  for (long i = 0; i < 2 * h; ++i) {
    fd.BeginCycle(++cycle);
    fd.RecordAlive(1);
  }
  EXPECT_EQ(fd.state(0), FailureDetector::State::kAlive);
  fd.BeginCycle(++cycle);  // silent 2H + 1 cycles: past suspect_after_misses
  fd.RecordAlive(1);
  EXPECT_EQ(fd.state(0), FailureDetector::State::kSuspect);
  EXPECT_TRUE(fd.IsLive(0));  // suspects stay in the sample pool
  EXPECT_EQ(fd.live_count(), 2);

  for (long i = 0; i < 2 * h - 1; ++i) fd.BeginCycle(++cycle);
  EXPECT_EQ(fd.state(0), FailureDetector::State::kSuspect);  // silent 4H
  fd.BeginCycle(++cycle);  // silent 4H + 1 cycles: past dead_after_misses
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

TEST(FailureDetectorTest, HeartbeatIntervalIsTheCeilingOfTheSquareRoot) {
  const std::pair<int, int> cases[] = {
      {1, 1},     {2, 2},     {4, 2},     {5, 3},     {24, 5},
      {128, 12},  {2025, 45}, {2026, 46}, {2048, 46}, {46340 * 46340, 46340},
      {46340 * 46340 + 1, 46341},         {2147483647, 46341},
  };
  for (const auto& [n, h] : cases) {
    EXPECT_EQ(HeartbeatIntervalCycles(n), h) << n;
  }
}

/// Brute-force reference for the detector: the same state machine, with
/// every site evaluated on every cycle. Per-site thresholds are read from
/// the detector (jitter is tested above); H is derived here on its own.
class SweepModel {
 public:
  using State = FailureDetector::State;

  SweepModel(const FailureDetector& fd, int num_sites,
             const FailureDetectorConfig& config)
      : config_(config), sites_(num_sites) {
    while (h_ * h_ < num_sites) ++h_;
    for (int i = 0; i < num_sites; ++i) {
      sites_[i].suspect_after = fd.suspect_after(i);
      sites_[i].dead_after = fd.dead_after(i);
      sites_[i].quarantine = fd.quarantine_cycles(i);
      sites_[i].lagging_after = fd.lagging_after(i);
    }
  }

  long h() const { return h_; }

  void BeginCycle(long cycle) {
    cycle_ = cycle;
    for (int i = 0; i < static_cast<int>(sites_.size()); ++i) {
      Site& s = sites_[i];
      if (!Live(s.state)) continue;
      const long misses = cycle_ - s.last_heard;
      if (misses > s.dead_after * h_) {
        Death(i);
      } else if (misses > s.suspect_after * h_) {
        if (s.state != State::kSuspect) Event("suspect", i, misses);
        s.state = State::kSuspect;
      } else if (misses >= 2 * h_) {
        Event("heartbeat_miss", i, misses);
      }
    }
  }
  void RecordAlive(int i) {
    sites_[i].last_heard = cycle_;
    if (sites_[i].state == State::kSuspect) sites_[i].state = State::kAlive;
  }
  void ReportUnreachable(int i) {
    if (sites_[i].state == State::kDead ||
        sites_[i].state == State::kRejoining) {
      return;
    }
    Event("unreachable", i);
    Death(i);
  }
  bool RecordMissedDeadline(int i) {
    Site& s = sites_[i];
    if (!Live(s.state)) return false;
    ++s.deadline_misses;
    Event("deadline_miss", i, s.deadline_misses);
    if (s.deadline_misses < s.lagging_after) return false;
    s.state = State::kLagging;
    s.lagging_since = cycle_;
    s.deadline_misses = 0;
    ++lagging_verdicts_;
    Event("lagging", i, s.lagging_since);
    return true;
  }
  void RecordDeadlineMet(int i) { sites_[i].deadline_misses = 0; }
  void BeginRejoin(int i) {
    if (sites_[i].state == State::kDead ||
        sites_[i].state == State::kLagging) {
      sites_[i].state = State::kRejoining;
      Event("rejoin_begin", i);
    }
  }
  void CompleteRejoin(int i) {
    Site& s = sites_[i];
    if (s.state != State::kRejoining && s.state != State::kDead &&
        s.state != State::kLagging) {
      return;
    }
    if (s.lagging_since >= 0) {
      const long staleness = cycle_ - s.lagging_since;
      staleness_total_ += staleness;
      staleness_max_ = std::max(staleness_max_, staleness);
      s.lagging_since = -1;
      Event("lag_recovered", i, staleness);
    }
    s.state = State::kAlive;
    s.last_heard = cycle_;
    s.deadline_misses = 0;
    Event("rejoin_complete", i);
  }
  void Restore(const std::vector<FailureDetector::SiteSnapshot>& snapshot,
               long cycle) {
    cycle_ = cycle;
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      Site& s = sites_[i];
      s.state = snapshot[i].state;
      s.last_heard = snapshot[i].last_heard_cycle;
      s.deaths = snapshot[i].deaths;
      s.death_cycles = snapshot[i].death_cycles;
      s.quarantine_until = snapshot[i].quarantine_until;
      s.deadline_misses = 0;
      s.lagging_since = s.state == State::kLagging ? cycle : -1;
    }
  }

  /// Every observable the detector exposes, for one site or in total.
  void ExpectMatches(const FailureDetector& fd) const {
    int live = 0;
    int lagging = 0;
    long deaths = 0;
    for (int i = 0; i < static_cast<int>(sites_.size()); ++i) {
      const Site& s = sites_[i];
      ASSERT_EQ(fd.state(i), s.state) << "site " << i;
      ASSERT_EQ(fd.deaths(i), s.deaths) << "site " << i;
      ASSERT_EQ(fd.lagging_since(i), s.lagging_since) << "site " << i;
      ASSERT_EQ(fd.IsQuarantined(i), s.quarantine_until >= cycle_)
          << "site " << i;
      live += Live(s.state) ? 1 : 0;
      lagging += s.state == State::kLagging ? 1 : 0;
      deaths += s.deaths;
    }
    ASSERT_EQ(fd.live_count(), live);
    ASSERT_EQ(fd.lagging_count(), lagging);
    ASSERT_EQ(fd.total_deaths(), deaths);
    ASSERT_EQ(fd.total_lagging_verdicts(), lagging_verdicts_);
    ASSERT_EQ(fd.staleness_cycles_total(), staleness_total_);
    ASSERT_EQ(fd.staleness_cycles_max(), staleness_max_);
  }

  /// The `failure` events emitted so far, as "name actor [value]".
  const std::vector<std::string>& events() const { return events_; }

 private:
  struct Site {
    State state = State::kAlive;
    long last_heard = 0;
    long deaths = 0;
    std::vector<long> death_cycles;
    long quarantine_until = -1;
    int deadline_misses = 0;
    long lagging_since = -1;
    int suspect_after = 0;
    int dead_after = 0;
    long quarantine = 0;
    int lagging_after = 0;
  };

  static bool Live(State state) {
    return state == State::kAlive || state == State::kSuspect;
  }
  void Event(const char* name, int site) {
    events_.push_back(std::string(name) + " " + std::to_string(site));
  }
  void Event(const char* name, int site, long value) {
    events_.push_back(std::string(name) + " " + std::to_string(site) + " " +
                      std::to_string(value));
  }
  void Death(int i) {
    Site& s = sites_[i];
    s.state = State::kDead;
    ++s.deaths;
    s.death_cycles.push_back(cycle_);
    const long horizon = cycle_ - config_.flap_window_cycles;
    std::erase_if(s.death_cycles, [horizon](long c) { return c < horizon; });
    Event("dead", i, s.deaths);
    if (static_cast<int>(s.death_cycles.size()) >=
        config_.flap_death_threshold) {
      s.quarantine_until = cycle_ + s.quarantine;
      Event("quarantined", i, s.quarantine_until);
    }
  }

  FailureDetectorConfig config_;
  std::vector<Site> sites_;
  long h_ = 1;
  long cycle_ = 0;
  long lagging_verdicts_ = 0;
  long staleness_total_ = 0;
  long staleness_max_ = 0;
  std::vector<std::string> events_;
};

/// A logged `failure` event in SweepModel's notation.
std::string Describe(const TraceEvent& event) {
  std::string out = event.name + " " + std::to_string(event.actor);
  for (const TraceArg& arg : event.args) {
    out += " " + std::to_string(arg.int_value);
  }
  return out;
}

// The live, lagging and death totals are kept current on every state change
// rather than recounted on each read, and BeginCycle visits only the sites
// whose silence is due for a transition or a breadcrumb. After every step of
// seeded random walks over every transition, Restore included, states and
// totals must equal those of SweepModel, which evaluates every site every
// cycle, and so must the emitted `failure` events, at H = 1, 2, 5, 8 and 12.
TEST(FailureDetectorTest, RunningTotalsMatchARecountAfterEveryTransition) {
  FailureDetectorConfig config = SmallConfig();
  config.threshold_jitter = 0.3;
  struct Checkpoint {
    std::vector<FailureDetector::SiteSnapshot> sites;
    long cycle;
  };
  for (const int num_sites : {1, 3, 21, 64, 133}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "sites " << num_sites << " seed " << seed);
      Telemetry telemetry;
      FailureDetector fd(num_sites, config);
      fd.set_telemetry(&telemetry);
      SweepModel model(fd, num_sites, config);
      ASSERT_EQ(fd.heartbeat_interval(), model.h());
      Rng rng(seed);
      long cycle = 0;
      std::vector<Checkpoint> checkpoints;
      long restores = 0;
      for (int step = 0; step < 4000; ++step) {
        const int site = static_cast<int>(rng.NextBounded(num_sites));
        switch (rng.NextBounded(12)) {
          case 0:
            fd.BeginCycle(++cycle);
            model.BeginCycle(cycle);
            break;
          case 1:
          case 2:
          case 3:
          case 4:
            fd.RecordAlive(site);
            model.RecordAlive(site);
            break;
          case 5:
            fd.ReportUnreachable(site);
            model.ReportUnreachable(site);
            break;
          case 6:
            ASSERT_EQ(fd.RecordMissedDeadline(site),
                      model.RecordMissedDeadline(site));
            break;
          case 7:
            fd.RecordDeadlineMet(site);
            model.RecordDeadlineMet(site);
            break;
          case 8:
            fd.BeginRejoin(site);
            model.BeginRejoin(site);
            break;
          case 9:
            fd.CompleteRejoin(site);
            model.CompleteRejoin(site);
            break;
          default:
            if (checkpoints.empty() || rng.NextBernoulli(0.5)) {
              checkpoints.push_back({fd.Snapshot(), cycle});
            } else {
              const Checkpoint& back =
                  checkpoints[rng.NextBounded(checkpoints.size())];
              fd.Restore(back.sites, back.cycle);
              model.Restore(back.sites, back.cycle);
              cycle = back.cycle;
              ++restores;
            }
        }
        ASSERT_NO_FATAL_FAILURE(model.ExpectMatches(fd)) << "step " << step;
      }
      EXPECT_GT(restores, 0);
      EXPECT_GT(fd.total_deaths(), 0);
      const std::vector<TraceEvent> logged = telemetry.trace.events();
      ASSERT_EQ(logged.size(), model.events().size());
      for (std::size_t i = 0; i < logged.size(); ++i) {
        ASSERT_EQ(Describe(logged[i]), model.events()[i]) << "event " << i;
      }
    }
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

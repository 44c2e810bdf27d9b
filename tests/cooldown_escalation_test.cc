// Tests of the implementation's adaptive policies (DESIGN.md §5): the
// certified alarm cooldown, the consecutive-alarm and probe-fraction
// escalations, and the always-full-sync ablation switch — plus the safety
// property that the cooldown never masks a true crossing beyond the
// (ε, δ) guarantee.

#include <gtest/gtest.h>

#include <cstdint>

#include "data/jester_like.h"
#include "data/synthetic.h"
#include "functions/l2_norm.h"
#include "functions/linf_distance.h"
#include "gm/cvsgm.h"
#include "gm/sgm.h"
#include "sim/network.h"
#include "test_util.h"

namespace sgm {
namespace {

JesterLikeConfig SmallJester(int n) {
  JesterLikeConfig config;
  config.num_sites = n;
  config.window = 60;
  config.seed = 4321;
  return config;
}

RunResult RunWith(const SgmOptions& options, double threshold, long cycles,
                  int n = 150, std::uint64_t stream_seed = 4321) {
  JesterLikeConfig config = SmallJester(n);
  config.seed = stream_seed;
  JesterLikeGenerator source(config);
  const LInfDistance f{Vector(config.num_buckets)};
  SamplingGeometricMonitor monitor(f, threshold, source.max_step_norm(),
                                   options);
  monitor.set_drift_norm_cap(source.max_drift_norm());
  return Simulate(&source, &monitor, cycles);
}

TEST(CooldownTest, ReducesAlarmHandlingCost) {
  // The saving is not per run: on some seeds the cooldown run alarms more,
  // and sends more, than its twin without (one candidate cause: a mute
  // restarts the consecutive-alarm streak, postponing that escalation).
  // Summed over a sweep of stream and coin seeds, the cooldown runs send
  // fewer messages.
  long messages_with = 0;
  long messages_without = 0;
  for (std::uint64_t stream_seed = 4321; stream_seed < 4326; ++stream_seed) {
    for (std::uint64_t coin_seed = 2024; coin_seed < 2030; ++coin_seed) {
      SgmOptions with;
      with.seed = coin_seed;
      SgmOptions without = with;
      without.certified_cooldown = false;
      messages_with += RunWith(with, 8.0, 800, 150, stream_seed)
                           .metrics.total_messages();
      messages_without += RunWith(without, 8.0, 800, 150, stream_seed)
                              .metrics.total_messages();
    }
  }
  EXPECT_LT(messages_with, messages_without);
}

TEST(CooldownTest, FnRateStaysBelowDeltaWithCooldown) {
  SgmOptions options;  // cooldown on by default
  const RunResult r = RunWith(options, 6.0, 1200);
  const double fn_rate =
      static_cast<double>(r.metrics.false_negative_cycles()) /
      static_cast<double>(r.cycles);
  EXPECT_LE(fn_rate, options.delta);
}

TEST(EscalationTest, ConsecutiveAlarmLimitForcesFullSync) {
  // A stream camped against the surface: two sites, one of which drifts
  // back and forth across the ball-crossing band so alarms persist.
  std::vector<std::vector<Vector>> frames;
  for (int t = 0; t < 60; ++t) {
    // Site 0 oscillates just at the surface band; site 1 fixed.
    const double x = 2.0 + 0.9 * ((t % 2 == 0) ? 1.0 : 0.8);
    frames.push_back({Vector{x, 0.0}, Vector{1.0, 0.0}});
  }
  ScriptedSource source(frames, 10.0);
  const L2Norm f;
  SgmOptions options;
  options.escalate_after_consecutive_alarms = 3;
  options.escalate_probe_fraction = 0.0;  // isolate the consecutive rule
  options.certified_cooldown = false;
  SamplingGeometricMonitor monitor(f, 2.3, source.max_step_norm(), options);
  const RunResult r = Simulate(&source, &monitor, 50);
  if (r.metrics.local_alarm_cycles() >= 3) {
    EXPECT_GE(r.metrics.full_syncs(), 1);
  }
}

TEST(EscalationTest, ProbeFractionEscalationBoundsSampleCost) {
  // With probe-fraction escalation at 1/8 N, no partial probe ships more
  // than N/8 vectors before a full sync resets drifts: compare against the
  // configuration with the rule disabled on a drift-heavy stream.
  SyntheticDriftConfig config;
  config.num_sites = 120;
  config.dim = 3;
  config.step_norm = 0.6;
  config.seed = 77;

  auto run = [&](double fraction) {
    SyntheticDriftGenerator source(config);
    const L2Norm f;
    SgmOptions options;
    options.escalate_probe_fraction = fraction;
    options.escalate_after_consecutive_alarms = 0;
    SamplingGeometricMonitor monitor(f, 2.5, source.max_step_norm(), options);
    return Simulate(&source, &monitor, 400);
  };
  const RunResult with = run(0.125);
  const RunResult without = run(0.0);
  // The rule must convert some repeated partials into full syncs.
  EXPECT_GE(with.metrics.full_syncs(), without.metrics.full_syncs());
}

TEST(EscalationTest, AlwaysFullSyncMatchesAlarmCount) {
  SgmOptions options;
  options.always_full_sync = true;
  const RunResult r = RunWith(options, 8.0, 600);
  EXPECT_EQ(r.metrics.partial_resolutions(), 0);
  EXPECT_EQ(r.metrics.full_syncs(), r.metrics.local_alarm_cycles());
}

TEST(EscalationTest, DisabledRulesReproducePaperBehaviour) {
  SgmOptions paper;
  paper.escalate_after_consecutive_alarms = 0;
  paper.escalate_probe_fraction = 0.0;
  paper.certified_cooldown = false;
  const RunResult r = RunWith(paper, 8.0, 600);
  // Pure paper behaviour: every alarm is either partially resolved or a
  // genuine ε-ball escalation.
  EXPECT_EQ(r.metrics.partial_resolutions() + r.metrics.full_syncs(),
            r.metrics.local_alarm_cycles());
}

TEST(CvsgmCooldownTest, FnRateStillBelowDelta) {
  JesterLikeGenerator source(SmallJester(150));
  const LInfDistance f{Vector(SmallJester(150).num_buckets)};
  CvsgmOptions options;
  CvSamplingMonitor monitor(f, 6.0, source.max_step_norm(), options);
  monitor.set_drift_norm_cap(source.max_drift_norm());
  const RunResult r = Simulate(&source, &monitor, 1200);
  const double fn_rate =
      static_cast<double>(r.metrics.false_negative_cycles()) /
      static_cast<double>(r.cycles);
  EXPECT_LE(fn_rate, options.delta);
}

}  // namespace
}  // namespace sgm

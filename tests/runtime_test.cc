// Tests of the message-passing runtime (src/runtime): protocol flow,
// accounting, belief correctness, cooldown propagation, and behavioural
// agreement with the simulator-side SGM on the same workloads.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>

#include "core/rng.h"
#include "data/jester_like.h"
#include "functions/chi_square.h"
#include "functions/l2_norm.h"
#include "functions/linf_distance.h"
#include "gm/sgm.h"
#include "runtime/driver.h"
#include "sim/network.h"

namespace sgm {
namespace {

RuntimeConfig BasicConfig(double threshold, double step = 1.0) {
  RuntimeConfig config;
  config.threshold = threshold;
  config.max_step_norm = step;
  return config;
}

TEST(RuntimeTest, InitializationSynchronizes) {
  const L2Norm norm;
  RuntimeDriver driver(3, norm, BasicConfig(10.0));
  driver.Initialize({Vector{1.0, 0.0}, Vector{2.0, 0.0}, Vector{3.0, 0.0}});
  EXPECT_EQ(driver.coordinator().estimate(), (Vector{2.0, 0.0}));
  EXPECT_FALSE(driver.coordinator().BelievesAbove());
  EXPECT_EQ(driver.coordinator().full_syncs(), 1);
  // Init cost: 1 state request + 3 reports + 1 estimate broadcast.
  EXPECT_EQ(driver.bus().messages_sent(), 5);
  EXPECT_EQ(driver.bus().site_messages_sent(), 3);
}

TEST(RuntimeTest, EpsilonTBroadcastMatchesSurfaceDistance) {
  const L2Norm norm;
  RuntimeDriver driver(2, norm, BasicConfig(7.0));
  driver.Initialize({Vector{3.0, 0.0}, Vector{1.0, 0.0}});
  // e = (2, 0); surface ‖v‖ = 7 → ε_T = 5.
  EXPECT_NEAR(driver.coordinator().epsilon_T(), 5.0, 1e-9);
}

TEST(RuntimeTest, QuietCyclesCostNothing) {
  const L2Norm norm;
  RuntimeDriver driver(4, norm, BasicConfig(100.0));
  const std::vector<Vector> locals(4, Vector{1.0, 1.0});
  driver.Initialize(locals);
  const long after_init = driver.bus().messages_sent();
  for (int t = 0; t < 20; ++t) driver.Tick(locals);
  EXPECT_EQ(driver.bus().messages_sent(), after_init);
}

TEST(RuntimeTest, TrueCrossingFlipsBelief) {
  const L2Norm norm;
  RuntimeConfig config = BasicConfig(3.0, /*step=*/10.0);
  RuntimeDriver driver(2, norm, config);
  driver.Initialize({Vector{1.0, 0.0}, Vector{1.0, 0.0}});
  EXPECT_FALSE(driver.coordinator().BelievesAbove());

  // Both sites jump outward; with drifts this large the sampling
  // probabilities clamp to ~1 and the alarm cascades to a full sync.
  for (int t = 0; t < 5; ++t) {
    driver.Tick({Vector{6.0, 0.0}, Vector{6.0, 0.0}});
    if (driver.coordinator().BelievesAbove()) break;
  }
  EXPECT_TRUE(driver.coordinator().BelievesAbove());
  EXPECT_GE(driver.coordinator().full_syncs(), 2);  // init + crossing
}

TEST(RuntimeTest, PartialResolutionAvoidsFullSync) {
  const L2Norm norm;
  // Keep U tight through a small step so a single-site Horvitz–Thompson
  // sample stays informative: the inverse-probability weight of a lone
  // report is U/(ln(1/δ)·√N), so a large U would inflate v̂ toward the
  // surface and conservatively escalate.
  RuntimeConfig config = BasicConfig(6.0, /*step=*/2.0);
  config.seed = 3;
  const int n = 40;
  RuntimeDriver driver(n, norm, config);
  std::vector<Vector> locals(n, Vector{1.0, 0.0});
  driver.Initialize(locals);

  // One outlier site swings far (its ball reaches past T = 6) while the
  // 40-site average barely moves: some cycle will sample it, alarm, and the
  // HT-vetted probe must dismiss the alarm.
  locals[0] = Vector{6.5, 0.0};
  long partials = 0;
  for (int t = 0; t < 40 && partials == 0; ++t) {
    driver.Tick(locals);
    partials = driver.coordinator().partial_resolutions();
  }
  EXPECT_GE(partials, 1);
  EXPECT_EQ(driver.coordinator().full_syncs(), 1);  // init only
  EXPECT_FALSE(driver.coordinator().BelievesAbove());
}

TEST(RuntimeTest, CooldownSuppressesRepeatAlarms) {
  const L2Norm norm;
  RuntimeConfig config = BasicConfig(6.0, /*step=*/0.5);
  config.seed = 3;
  const int n = 40;
  RuntimeDriver driver(n, norm, config);
  std::vector<Vector> locals(n, Vector{1.0, 0.0});
  driver.Initialize(locals);

  locals[0] = Vector{3.5, 0.0};  // persistent outlier, harmless average
  long first_partial_cycle = -1;
  long second_partial_cycle = -1;
  for (int t = 1; t <= 200; ++t) {
    driver.Tick(locals);
    const long partials = driver.coordinator().partial_resolutions();
    if (partials >= 1 && first_partial_cycle < 0) first_partial_cycle = t;
    if (partials >= 2 && second_partial_cycle < 0) {
      second_partial_cycle = t;
      break;
    }
  }
  if (first_partial_cycle >= 0 && second_partial_cycle >= 0) {
    // With step 0.5 and several units of room, the certified mute spans
    // multiple cycles: repeat alarms cannot be adjacent.
    EXPECT_GT(second_partial_cycle - first_partial_cycle, 1);
  }
}

TEST(RuntimeTest, AgreesWithSimulatorOnWorkloadScale) {
  // The runtime and the simulator implement the same protocol; on the same
  // Jester workload their communication costs must land in the same
  // ballpark (the tiers seed their coins differently here and count
  // messages differently, so exact equality is not expected) and both must
  // track the truth.
  JesterLikeConfig jester;
  jester.num_sites = 120;
  jester.window = 60;
  jester.seed = 31415;
  const double threshold = 8.0;
  const long cycles = 500;
  const LInfDistance f{Vector(jester.num_buckets)};

  // Simulator side.
  JesterLikeGenerator sim_source(jester);
  SgmOptions options;
  options.escalate_after_consecutive_alarms = 0;  // runtime has no analogue
  options.escalate_probe_fraction = 0.0;
  SamplingGeometricMonitor sim_sgm(f, threshold, sim_source.max_step_norm(),
                                   options);
  sim_sgm.set_drift_norm_cap(sim_source.max_drift_norm());
  const RunResult sim_run = Simulate(&sim_source, &sim_sgm, cycles);

  // Runtime side.
  JesterLikeGenerator rt_source(jester);
  RuntimeConfig config;
  config.threshold = threshold;
  config.max_step_norm = rt_source.max_step_norm();
  config.drift_norm_cap = rt_source.max_drift_norm();
  RuntimeDriver driver(jester.num_sites, f, config);
  std::vector<Vector> locals;
  rt_source.Advance(&locals);
  driver.Initialize(locals);
  for (long t = 0; t < cycles; ++t) {
    rt_source.Advance(&locals);
    driver.Tick(locals);
  }

  const double sim_msgs =
      static_cast<double>(sim_run.metrics.total_messages());
  const double rt_msgs = static_cast<double>(driver.bus().messages_sent());
  EXPECT_LT(rt_msgs, 5.0 * sim_msgs + 200.0);
  EXPECT_LT(sim_msgs, 5.0 * rt_msgs + 200.0);

  // Belief correctness at the end: within one cycle of truth or currently
  // in an undetected-but-rare state; assert agreement with the simulator's
  // oracle-checked behaviour by checking FN cycles were rare there.
  EXPECT_LE(sim_run.metrics.false_negative_cycles(), cycles / 10);
}

// ── Differential test: the simulator and the runtime, cycle for cycle ─────
//
// SamplingGeometricMonitor (the paper figures) and RuntimeDriver's SiteNode /
// CoordinatorNode (the deployment) run side by side on one stream and must
// take the same decision every cycle: the same belief, the same cumulative
// full-sync and partial-resolution counts, and bit-identical e and ε_T.
//
// Both tiers flip the same sampling coin, keyed by (seed, site, cycle,
// trial) (estimators/sgm_rules.h's CoinUniform), and are seeded alike. Every
// site either stands still (Δv_i = 0, so g_i = 0) or has moved one full step
// per cycle in a fixed direction since the last full sync (‖Δv_i‖ =
// max_step·k after k cycles). Directions are re-drawn only right after a
// full sync, when every drift restarts from zero. Where ln(1/δ)/√N > 1, a
// mover's g_i clamps to 1; where it is below 1, g_i is fractional and the
// coins decide who is sampled, who alarms and who enters the probe.
//
// The runtime runs no escalation, so the simulator's two escalation rules
// are off. Message totals are not compared: with identical decisions the
// runtime still sends more paper messages, because (1) every alarming site
// sends its own kLocalViolation, (2) a full sync broadcasts a request and
// re-collects all N sites where the simulator collects N − |K1|, and (3)
// kResolved is broadcast even when the mute is 0.

/// The monitored function: the L2 norm, the L∞ distance to the last
/// estimate, or χ² of [a, b, c] counts in a window of 200 (the storm-128
/// and loopback-3 query), whose ball tests, ε_T and cooldowns run the
/// probed crossing verdicts.
enum class Query { kL2, kLInf, kChiSquare };

struct DifferentialScenario {
  int sites;
  double delta;  ///< ln(1/δ)/√N > 1 clamps every g_i to 0 or 1
  Query query;
  double threshold;
  std::uint64_t seed;  ///< seeds the stream and both tiers' coins
  /// Sites start at start ± spread·(unit Gaussian) per coordinate; empty
  /// means (T/2, 0, 0) ± 1.
  Vector start = {};
  double spread = 1.0;
};

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool SameBits(const Vector& a, const Vector& b) {
  if (a.dim() != b.dim()) return false;
  for (std::size_t k = 0; k < a.dim(); ++k) {
    if (!SameBits(a[k], b[k])) return false;
  }
  return true;
}

/// Counts of what a differential run exercised, for the coverage checks.
struct DifferentialCoverage {
  long full_syncs = 0;   ///< after initialization
  long partials = 0;
  long cooldowns = 0;    ///< partial resolutions that broadcast a mute
};

/// Runs one scenario, asserting agreement every cycle (ASSERT_* returns
/// early, so the coverage comes back through `seen`).
void RunDifferential(const DifferentialScenario& s,
                     DifferentialCoverage* seen) {
  constexpr int kDim = 3;
  constexpr double kStep = 1.0;
  constexpr long kCycles = 400;
  std::unique_ptr<MonitoredFunction> f;
  switch (s.query) {
    case Query::kL2:
      f = std::make_unique<L2Norm>();
      break;
    case Query::kLInf:
      f = std::make_unique<LInfDistance>(Vector(kDim));
      break;
    case Query::kChiSquare:
      f = std::make_unique<ChiSquare>(200.0);
      break;
  }
  SCOPED_TRACE(::testing::Message() << "N=" << s.sites << " " << f->name()
                                    << " T=" << s.threshold
                                    << " seed=" << s.seed);

  SgmOptions options;
  options.delta = s.delta;
  options.escalate_after_consecutive_alarms = 0;
  options.escalate_probe_fraction = 0.0;
  options.seed = s.seed;
  SamplingGeometricMonitor sim(*f, s.threshold, kStep, options);
  RuntimeConfig config;
  config.threshold = s.threshold;
  config.delta = s.delta;
  config.max_step_norm = kStep;
  config.seed = s.seed;
  RuntimeDriver driver(s.sites, *f, config);
  const CoordinatorNode& rt = driver.coordinator();

  // Sites start scattered around a point well inside the threshold. After
  // each full sync, site 0 and about half of the others move. While
  // f(e) > T, movers head back toward the origin, so an L2 or χ² run keeps
  // re-crossing the surface.
  Rng rng(s.seed);
  std::vector<Vector> locals(s.sites, Vector(kDim));
  std::vector<Vector> velocity(s.sites, Vector(kDim));
  for (Vector& v : locals) {
    for (std::size_t k = 0; k < kDim; ++k) {
      if (s.start.empty()) {
        v[k] = (k == 0 ? 0.5 * s.threshold : 0.0) + rng.NextGaussian();
      } else {
        v[k] = s.start[k] + s.spread * rng.NextGaussian();
      }
    }
  }
  const auto redraw = [&](bool above, const Vector& e) {
    for (int i = 0; i < s.sites; ++i) {
      Vector& v = velocity[i];
      v.SetZero();
      if (i > 0 && !rng.NextBernoulli(0.5)) continue;
      for (std::size_t k = 0; k < kDim; ++k) v[k] = rng.NextGaussian();
      v *= kStep / v.Norm();
      if (above && s.query != Query::kLInf && v.Dot(e) > 0.0) v *= -1.0;
    }
  };

  Metrics metrics;
  sim.Initialize(locals, &metrics);
  driver.Initialize(locals);
  redraw(sim.BelievesAbove(), sim.estimate());
  for (long t = 1; t <= kCycles; ++t) {
    for (int i = 0; i < s.sites; ++i) locals[i] += velocity[i];
    const long sim_broadcasts = metrics.coordinator_messages();
    const CycleOutcome outcome = sim.OnCycle(locals, &metrics);
    driver.Tick(locals);

    SCOPED_TRACE(::testing::Message() << "cycle " << t);
    ASSERT_EQ(rt.BelievesAbove(), sim.BelievesAbove());
    // The runtime counts the initializing sync; the simulator does not.
    ASSERT_EQ(rt.full_syncs(), metrics.full_syncs() + 1);
    ASSERT_EQ(rt.partial_resolutions(), metrics.partial_resolutions());
    ASSERT_TRUE(SameBits(rt.estimate(), sim.estimate()));
    ASSERT_TRUE(SameBits(rt.epsilon_T(), sim.epsilon_T()));

    if (outcome.full_sync) {
      ++seen->full_syncs;
      redraw(sim.BelievesAbove(), sim.estimate());
    }
    if (outcome.partial_resolved) {
      ++seen->partials;
      // The probe request is one broadcast; a mute announcement is another.
      if (metrics.coordinator_messages() - sim_broadcasts == 2) {
        ++seen->cooldowns;
      }
    }
  }
}

TEST(RuntimeTest, MatchesSimulatorCycleForCycle) {
  using enum Query;
  const DifferentialScenario scenarios[] = {
      // ln(1/δ)/√N is 1.15 at N = 4, 16 and 64: every g_i is 0 or 1.
      {4, 0.1, kL2, 6.0, 11},
      {4, 0.1, kLInf, 6.0, 12},
      {16, 0.01, kL2, 8.0, 13},
      {16, 0.01, kLInf, 3.0, 14},
      {64, 1e-4, kL2, 8.0, 15},
      {64, 1e-4, kLInf, 2.0, 16},
      {16, 0.01, kL2, 12.0, 17},
      {64, 1e-4, kLInf, 3.0, 18},
      {16, 0.01, kChiSquare, 0.5, 22, {20.0, 10.0, 30.0}, 3.0},
      {16, 0.01, kChiSquare, 0.3, 23, {10.0, 20.0, 40.0}, 3.0},
      // ln(1/δ)/√N < 1: a mover's g_i is fractional, so the shared coins
      // decide. It is 0.29 at N = 64, 0.26 and 0.20 at 128, 0.10, 0.19 and
      // 0.14 at 256, and 0.10 at 512.
      {64, 0.1, kL2, 8.0, 31},
      {128, 0.05, kLInf, 3.0, 32},
      {256, 0.2, kL2, 12.0, 33},
      {512, 0.1, kLInf, 3.0, 38},
      {512, 0.1, kL2, 8.0, 39},
      {128, 0.1, kChiSquare, 0.3, 40, {10.0, 20.0, 40.0}, 3.0},
      {256, 0.05, kLInf, 3.0, 41},
      {256, 0.1, kChiSquare, 0.3, 42, {10.0, 20.0, 40.0}, 3.0},
  };
  for (const DifferentialScenario& s : scenarios) {
    DifferentialCoverage seen;
    RunDifferential(s, &seen);
    if (HasFatalFailure()) return;
    // Every scenario exercises all three outcomes of an alarm.
    EXPECT_GT(seen.full_syncs, 0) << "N=" << s.sites;
    EXPECT_GT(seen.partials, 0) << "N=" << s.sites;
    EXPECT_GT(seen.cooldowns, 0) << "N=" << s.sites;
  }
}

TEST(RuntimeTest, SiteFirstTrialFlagConsistent) {
  const L2Norm norm;
  RuntimeConfig config = BasicConfig(5.0);
  RuntimeDriver driver(5, norm, config);
  std::vector<Vector> locals(5, Vector{1.0, 0.0});
  driver.Initialize(locals);
  driver.Tick(locals);
  // Zero drift ⇒ zero sampling probability ⇒ nobody in the first trial.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(driver.site(i).in_first_trial());
  }
}

TEST(RuntimeTest, MessageTypeNamesExist) {
  EXPECT_STREQ(RuntimeMessage::TypeName(
                   RuntimeMessage::Type::kLocalViolation),
               "LocalViolation");
  EXPECT_STREQ(RuntimeMessage::TypeName(RuntimeMessage::Type::kNewEstimate),
               "NewEstimate");
}

}  // namespace
}  // namespace sgm

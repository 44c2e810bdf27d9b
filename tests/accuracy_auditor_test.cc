// Online accuracy auditor: per-cycle TP/FP/FN/TN classification against the
// lock-step oracle, the out-of-zone run bound, telemetry publication, and
// the end-to-end positive/negative contract on real stress legs — a clean
// audited run reports zero ε-bound violations, and deliberately collapsing
// the tolerances makes the auditor fire (the ISSUE's negative test).

#include "obs/accuracy_auditor.h"

#include <gtest/gtest.h>

#include "obs/telemetry.h"
#include "sim/stress.h"

namespace sgm {
namespace {

AccuracyAuditor::CycleSample Sample(long cycle, bool believed, bool truth,
                                    double estimate, double exact,
                                    double surface_distance,
                                    std::int64_t span = 0) {
  AccuracyAuditor::CycleSample sample;
  sample.cycle = cycle;
  sample.believed_above = believed;
  sample.truth_above = truth;
  sample.estimate_value = estimate;
  sample.truth_value = exact;
  sample.surface_distance = surface_distance;
  sample.span = span;
  return sample;
}

TEST(AccuracyAuditorTest, ClassifiesAllFourVerdicts) {
  AccuracyAuditorConfig config;
  config.epsilon = 0.5;
  config.max_out_of_zone_run = 10;
  AccuracyAuditor auditor(config);

  EXPECT_EQ(auditor.ObserveCycle(Sample(1, true, true, 1.2, 1.1, 0.6)),
            AccuracyAuditor::Verdict::kTruePositive);
  EXPECT_EQ(auditor.ObserveCycle(Sample(2, false, false, 0.1, 0.2, 0.6)),
            AccuracyAuditor::Verdict::kTrueNegative);
  EXPECT_EQ(auditor.ObserveCycle(Sample(3, true, false, 1.2, 0.2, 0.1)),
            AccuracyAuditor::Verdict::kFalsePositive);
  EXPECT_EQ(auditor.ObserveCycle(Sample(4, false, true, 0.1, 1.2, 0.1)),
            AccuracyAuditor::Verdict::kFalseNegative);

  const AccuracyAuditor::Report& report = auditor.report();
  EXPECT_EQ(report.cycles, 4);
  EXPECT_EQ(report.true_positives, 1);
  EXPECT_EQ(report.true_negatives, 1);
  EXPECT_EQ(report.false_positives, 1);
  EXPECT_EQ(report.false_negatives, 1);
  EXPECT_EQ(report.disagreements(), 2);
  // Both disagreements sat inside the ε zone: benign, no bound pressure.
  EXPECT_EQ(report.in_zone_disagreements, 2);
  EXPECT_EQ(report.out_of_zone_disagreements, 0);
  EXPECT_EQ(report.bound_violations, 0);
  EXPECT_DOUBLE_EQ(report.fn_rate(), 0.0);
  // |f(v̂) − f(v)| tracked across all cycles: max is the 1.1 FN gap.
  EXPECT_NEAR(report.max_abs_error, 1.1, 1e-12);
  EXPECT_TRUE(report.ok());
}

TEST(AccuracyAuditorTest, ToleratesOutOfZoneRunUpToHorizon) {
  AccuracyAuditorConfig config;
  config.epsilon = 0.1;
  config.max_out_of_zone_run = 3;
  AccuracyAuditor auditor(config);

  // Exactly max_out_of_zone_run consecutive out-of-zone FNs: tolerated.
  for (long t = 1; t <= 3; ++t) {
    auditor.ObserveCycle(Sample(t, false, true, 0.1, 1.2, 0.5));
  }
  EXPECT_EQ(auditor.report().bound_violations, 0);
  EXPECT_EQ(auditor.report().longest_out_of_zone_run, 3);
  EXPECT_EQ(auditor.report().out_of_zone_false_negatives, 3);

  // An agreement cycle resets the run.
  auditor.ObserveCycle(Sample(4, true, true, 1.2, 1.2, 0.5));
  for (long t = 5; t <= 7; ++t) {
    auditor.ObserveCycle(Sample(t, false, true, 0.1, 1.2, 0.5));
  }
  EXPECT_EQ(auditor.report().bound_violations, 0);

  // One more pushes the run past the horizon: the bound fires.
  auditor.ObserveCycle(Sample(8, false, true, 0.1, 1.2, 0.5, /*span=*/42));
  EXPECT_EQ(auditor.report().bound_violations, 1);
  EXPECT_EQ(auditor.report().first_violation_cycle, 8);
  EXPECT_FALSE(auditor.report().ok());
}

TEST(AccuracyAuditorTest, ViolationCarriesTheRunsOpeningSpan) {
  AccuracyAuditorConfig config;
  config.epsilon = 0.1;
  config.max_out_of_zone_run = 1;
  AccuracyAuditor auditor(config);

  // The run opens at cycle 1 under span 7; the violation at cycle 2 must
  // attribute to that opening cascade, not to whatever span came later.
  auditor.ObserveCycle(Sample(1, false, true, 0.1, 1.2, 0.5, /*span=*/7));
  auditor.ObserveCycle(Sample(2, false, true, 0.1, 1.2, 0.5, /*span=*/9));
  EXPECT_EQ(auditor.report().bound_violations, 1);
  EXPECT_EQ(auditor.report().first_violation_span, 7);
}

TEST(AccuracyAuditorTest, InZoneCycleResetsTheRun) {
  AccuracyAuditorConfig config;
  config.epsilon = 0.4;
  config.max_out_of_zone_run = 2;
  AccuracyAuditor auditor(config);

  auditor.ObserveCycle(Sample(1, false, true, 0.1, 1.2, 0.5));
  auditor.ObserveCycle(Sample(2, false, true, 0.1, 1.2, 0.5));
  // Still disagreeing, but the mean moved into the ε zone: the protocol is
  // within its allowance, so the out-of-zone run ends.
  auditor.ObserveCycle(Sample(3, false, true, 0.1, 1.2, 0.3));
  auditor.ObserveCycle(Sample(4, false, true, 0.1, 1.2, 0.5));
  auditor.ObserveCycle(Sample(5, false, true, 0.1, 1.2, 0.5));
  EXPECT_EQ(auditor.report().bound_violations, 0);
  EXPECT_EQ(auditor.report().in_zone_disagreements, 1);
  EXPECT_EQ(auditor.report().out_of_zone_disagreements, 4);
}

TEST(AccuracyAuditorTest, PublishesVerdictCountersAndErrorHistogram) {
  Telemetry telemetry;
  AccuracyAuditorConfig config;
  config.epsilon = 0.5;
  config.max_out_of_zone_run = 10;
  config.telemetry = &telemetry;
  AccuracyAuditor auditor(config);

  auditor.ObserveCycle(Sample(1, true, true, 1.5, 1.0, 0.6));
  auditor.ObserveCycle(Sample(2, false, true, 0.1, 1.2, 0.1));

  MetricRegistry& reg = telemetry.registry;
  EXPECT_EQ(reg.GetCounter("audit.cycles")->value(), 2);
  EXPECT_EQ(reg.GetCounter("audit.true_positives")->value(), 1);
  EXPECT_EQ(reg.GetCounter("audit.false_negatives")->value(), 1);
  EXPECT_EQ(reg.GetCounter("audit.bound_violations")->value(), 0);
  EXPECT_EQ(reg.GetHistogram("audit.abs_error",
                             AccuracyAuditor::ErrorBuckets())->count(), 2);
  EXPECT_NEAR(reg.GetGauge("audit.max_abs_error")->value(), 1.1, 1e-12);
  EXPECT_NEAR(reg.GetGauge("audit.abs_error_last")->value(), 1.1, 1e-12);
}

TEST(AccuracyAuditorTest, ViolationEmitsBoundViolationTraceEventWithSpan) {
  Telemetry telemetry;
  AccuracyAuditorConfig config;
  config.epsilon = 0.0;
  config.max_out_of_zone_run = 0;
  config.telemetry = &telemetry;
  AccuracyAuditor auditor(config);

  auditor.ObserveCycle(Sample(1, false, true, 0.1, 1.2, 0.5, /*span=*/13));

  bool found = false;
  for (const TraceEvent& event : telemetry.trace.events()) {
    if (event.name != "bound_violation") continue;
    found = true;
    EXPECT_EQ(event.cat, "audit");
    bool has_span = false;
    for (const TraceArg& arg : event.args) {
      if (arg.key == "span") {
        has_span = true;
        EXPECT_EQ(arg.int_value, 13);
      }
      if (arg.key == "kind") {
        EXPECT_EQ(arg.string_value, "false_negative");
      }
    }
    EXPECT_TRUE(has_span);
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// End-to-end: the audited stress legs.

TEST(AccuracyAuditorStressTest, CleanRuntimeLegReportsZeroViolations) {
  StressConfig config;
  config.seed = 7;
  config.protocol = StressProtocol::kSgm;
  config.cycles = 150;
  config.drop_probability = 0.25;
  config.duplicate_probability = 0.05;
  config.max_delay_rounds = 3;
  config.crash_probability = 0.05;
  config.audit = true;
  const StressReport report = RunRuntimeStress(config);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.audit.cycles, config.cycles);
  EXPECT_EQ(report.audit.bound_violations, 0);
  EXPECT_LE(report.audit.fn_rate(), 0.11);  // δ + 0.01 with default δ = 0.1
  // The verdict partition covers every cycle.
  EXPECT_EQ(report.audit.true_positives + report.audit.true_negatives +
                report.audit.false_positives + report.audit.false_negatives,
            report.audit.cycles);
}

TEST(AccuracyAuditorStressTest, AuditedSimLegMatchesCheckerFnCount) {
  StressConfig config;
  config.seed = 11;
  config.protocol = StressProtocol::kCvsgm;
  config.function = StressFunction::kL2Norm;
  config.cycles = 200;
  config.audit = true;
  const StressReport report = RunSimStress(config);
  EXPECT_TRUE(report.ok()) << report.Summary();
  // The auditor's disagreement count is the harness's FN-cycle count: both
  // observe the same oracle, so they must agree exactly.
  EXPECT_EQ(report.audit.disagreements(), report.fn_cycles);
  EXPECT_EQ(report.audit.bound_violations, 0);
}

TEST(AccuracyAuditorStressTest, CollapsedTolerancesFireOnApproximateRun) {
  // The deliberate negative test: with the audit zone collapsed to exact
  // agreement, any benign disagreement cycle of an approximate protocol
  // becomes a bound violation — proving the auditor actually bites.
  StressConfig config;
  config.seed = 7;
  config.protocol = StressProtocol::kSgm;
  config.cycles = 150;
  config.drop_probability = 0.25;
  config.duplicate_probability = 0.05;
  config.max_delay_rounds = 3;
  config.crash_probability = 0.05;
  config.audit = true;
  config.audit_epsilon = 0.0;
  config.audit_max_run = 0;
  const StressReport report = RunRuntimeStress(config);
  // The protocol invariants still hold (the *checker* kept its tolerances);
  // only the audit fires.
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.audit.bound_violations, 0);
  EXPECT_GE(report.audit.first_violation_cycle, 0);
  EXPECT_NE(report.audit.first_violation_span, 0)
      << "violation must attribute the offending sync-cycle span";
  EXPECT_FALSE(report.audit.ok());
}

}  // namespace
}  // namespace sgm

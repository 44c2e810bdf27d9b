#include "obs/accuracy_auditor.h"

#include <algorithm>
#include <cmath>

#include "obs/telemetry.h"

namespace sgm {

const std::vector<double>& AccuracyAuditor::ErrorBuckets() {
  static const std::vector<double>* buckets = [] {
    auto* edges = new std::vector<double>;
    for (double edge = 1.0 / (1 << 20); edge <= 64.0 * 1.5; edge *= 2.0) {
      edges->push_back(edge);
    }
    return edges;
  }();
  return *buckets;
}

const char* AccuracyAuditor::ToString(Verdict verdict) {
  switch (verdict) {
    case Verdict::kTruePositive: return "TP";
    case Verdict::kTrueNegative: return "TN";
    case Verdict::kFalsePositive: return "FP";
    case Verdict::kFalseNegative: return "FN";
  }
  return "?";
}

AccuracyAuditor::AccuracyAuditor(const AccuracyAuditorConfig& config)
    : config_(config) {
  if (config_.telemetry != nullptr) {
    MetricRegistry& registry = config_.telemetry->registry;
    cycles_ = registry.GetCounter("audit.cycles");
    tp_ = registry.GetCounter("audit.true_positives");
    tn_ = registry.GetCounter("audit.true_negatives");
    fp_ = registry.GetCounter("audit.false_positives");
    fn_ = registry.GetCounter("audit.false_negatives");
    out_of_zone_ = registry.GetCounter("audit.out_of_zone_disagreements");
    violations_ = registry.GetCounter("audit.bound_violations");
    degraded_cycles_ = registry.GetCounter("audit.degraded_cycles");
    degraded_fn_ = registry.GetCounter("audit.degraded_false_negatives");
    max_abs_error_ = registry.GetGauge("audit.max_abs_error");
    instantaneous_error_ = registry.GetGauge("audit.abs_error_last");
    abs_error_ = registry.GetHistogram("audit.abs_error", ErrorBuckets());
  }
}

AccuracyAuditor::Verdict AccuracyAuditor::ObserveCycle(
    const CycleSample& sample) {
  ++report_.cycles;
  if (sample.degraded) {
    ++report_.degraded_cycles;
    if (degraded_cycles_ != nullptr) degraded_cycles_->Increment();
  }
  if (cycles_ != nullptr) cycles_->Increment();

  const Verdict verdict =
      sample.truth_above
          ? (sample.believed_above ? Verdict::kTruePositive
                                   : Verdict::kFalseNegative)
          : (sample.believed_above ? Verdict::kFalsePositive
                                   : Verdict::kTrueNegative);
  switch (verdict) {
    case Verdict::kTruePositive:
      ++report_.true_positives;
      if (tp_ != nullptr) tp_->Increment();
      break;
    case Verdict::kTrueNegative:
      ++report_.true_negatives;
      if (tn_ != nullptr) tn_->Increment();
      break;
    case Verdict::kFalsePositive:
      ++report_.false_positives;
      if (fp_ != nullptr) fp_->Increment();
      break;
    case Verdict::kFalseNegative:
      ++report_.false_negatives;
      if (fn_ != nullptr) fn_->Increment();
      break;
  }

  const double abs_error =
      std::fabs(sample.estimate_value - sample.truth_value);
  report_.sum_abs_error += abs_error;
  report_.max_abs_error = std::max(report_.max_abs_error, abs_error);
  if (abs_error_ != nullptr) abs_error_->Observe(abs_error);
  if (instantaneous_error_ != nullptr) instantaneous_error_->Set(abs_error);
  if (max_abs_error_ != nullptr) max_abs_error_->Set(report_.max_abs_error);

  const bool disagree = sample.truth_above != sample.believed_above;
  const bool out_of_zone =
      disagree && sample.surface_distance > config_.epsilon;
  if (disagree && !out_of_zone) ++report_.in_zone_disagreements;
  if (out_of_zone) {
    ++report_.out_of_zone_disagreements;
    if (verdict == Verdict::kFalseNegative) {
      ++report_.out_of_zone_false_negatives;
      if (sample.degraded) {
        ++report_.degraded_out_of_zone_false_negatives;
        if (degraded_fn_ != nullptr) degraded_fn_->Increment();
      }
    }
    if (out_of_zone_ != nullptr) out_of_zone_->Increment();
    if (out_of_zone_run_ == 0) run_span_ = sample.span;
    ++out_of_zone_run_;
    report_.longest_out_of_zone_run =
        std::max(report_.longest_out_of_zone_run, out_of_zone_run_);
    if (out_of_zone_run_ > config_.max_out_of_zone_run) {
      ++report_.bound_violations;
      if (report_.first_violation_cycle < 0) {
        report_.first_violation_cycle = sample.cycle;
        report_.first_violation_span = run_span_;
      }
      if (violations_ != nullptr) violations_->Increment();
      if (config_.telemetry != nullptr) {
        config_.telemetry->trace.Emit(
            TraceEventId::kBoundViolation, -1,
            {{"kind", sample.believed_above ? "false_positive"
                                            : "false_negative"},
             {"span", run_span_},
             {"run", out_of_zone_run_},
             {"abs_error", abs_error},
             {"surface_distance", sample.surface_distance}});
      }
    }
  } else {
    out_of_zone_run_ = 0;
    run_span_ = 0;
  }
  return verdict;
}

}  // namespace sgm

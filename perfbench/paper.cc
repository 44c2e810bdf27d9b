// paper-jester-500: the paper-reproduction simulator. SamplingGeometricMonitor
// (gm) driven through Protocol::Initialize / OnCycle on the Jester-like L∞
// stream, N = 500, T = 6, δ = 0.1 (Figure 11(a)'s first point) — the code
// path behind every figure in EXPERIMENTS.md. At T = 10 about half the
// cycles sit in the certified-cooldown mute and cost ~0.1 µs, so the
// all-cycle median flips between two modes from seed to seed; at T = 6 the
// monitored cycles are a steady majority.
//
// The loop mirrors sim::Network::Run (generator and oracle off the clock),
// and a gate requires its totals to equal Simulate() on the same seed.
// Telemetry is attached in the traced run only.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/rng.h"
#include "data/jester_like.h"
#include "functions/linf_distance.h"
#include "gm/sgm.h"
#include "obs/telemetry.h"
#include "sim/network.h"

namespace perfbench {
namespace {

using sgm::Vector;

constexpr int kSites = 500;
constexpr double kThreshold = 6.0;
constexpr double kDelta = 0.1;
constexpr long kSegmentCycles = 10000;
constexpr double kCyclesPerS = 15000.0;  // calibrated pace, see MakePlan
constexpr HostReference kHostReference = HostReference::kCompute;

std::unique_ptr<sgm::JesterLikeGenerator> MakeSource(std::uint64_t seed) {
  sgm::JesterLikeConfig config;
  config.num_sites = kSites;
  config.seed = sgm::DeriveSeed(seed, 101);
  return std::make_unique<sgm::JesterLikeGenerator>(config);
}

std::unique_ptr<sgm::SamplingGeometricMonitor> MakeProtocol(
    const sgm::MonitoredFunction& function, const sgm::StreamSource& source,
    std::uint64_t seed) {
  sgm::SgmOptions options;
  options.delta = kDelta;
  options.seed = sgm::DeriveSeed(seed, 303);
  auto protocol = std::make_unique<sgm::SamplingGeometricMonitor>(
      function, kThreshold, source.max_step_norm(), options);
  protocol->set_drift_norm_cap(source.max_drift_norm());
  return protocol;
}

/// Paper-comparable totals the Simulate() gate compares.
struct Totals {
  long total_messages = 0;
  long site_messages = 0;
  double bytes = 0.0;
  long full_syncs = 0;
  long partial_resolutions = 0;
  long local_alarm_cycles = 0;
  long false_positives = 0;
  long fn_cycles = 0;

  static Totals Of(const sgm::Metrics& m) {
    return {m.total_messages(),      m.site_messages(),
            m.total_bytes(),         m.full_syncs(),
            m.partial_resolutions(), m.local_alarm_cycles(),
            m.false_positives(),     m.false_negative_cycles()};
  }
  bool operator==(const Totals&) const = default;
};

struct SegmentOutcome {
  double setup_s = 0.0;
  Totals after_init;
  Totals end;
  double monitor_ns_sum = 0.0;
  long monitor_count = 0;
  double full_sync_ns_sum = 0.0;
  long full_sync_count = 0;
};

SegmentOutcome RunSegment(std::uint64_t seed, long cycles,
                          const sgm::MonitoredFunction& function,
                          sgm::Telemetry* telemetry, CycleTimings* timings) {
  SegmentOutcome out;
  auto source = MakeSource(seed);
  std::vector<Vector> locals;
  source->Advance(&locals);
  sgm::Metrics metrics;
  NormalizedTimer setup(kHostReference);
  setup.Start();
  auto protocol = MakeProtocol(function, *source, seed);
  if (telemetry != nullptr) protocol->set_telemetry(telemetry);
  protocol->Initialize(locals, &metrics);
  out.setup_s = setup.StopNs() * 1e-9;
  out.after_init = Totals::Of(metrics);

  Vector mean(locals.front().dim());
  for (long t = 0; t < cycles; ++t) {
    source->Advance(&locals);
    const std::int64_t start = NowNs();
    const sgm::CycleOutcome outcome = protocol->OnCycle(locals, &metrics);
    const double ns = static_cast<double>(NowNs() - start);
    if (timings != nullptr) timings->Add(ns, outcome.local_alarm);

    // Network::Run's oracle, through the protocol's own function instance.
    mean.SetZero();
    for (const Vector& v : locals) mean += v;
    mean /= static_cast<double>(locals.size());
    const bool true_above =
        protocol->function().Value(mean) > protocol->threshold();
    metrics.OnCycle(true_above != protocol->BelievesAbove());
  }
  if (timings != nullptr) timings->Finish();
  metrics.Finalize();
  out.end = Totals::Of(metrics);
  if (telemetry != nullptr) {
    const sgm::Histogram* monitor =
        telemetry->registry.GetHistogram("protocol.monitor_cycle_ns");
    const sgm::Histogram* sync =
        telemetry->registry.GetHistogram("protocol.full_sync_ns");
    out.monitor_ns_sum = monitor->sum();
    out.monitor_count = monitor->count();
    out.full_sync_ns_sum = sync->sum();
    out.full_sync_count = sync->count();
  }
  return out;
}

}  // namespace

RunReport RunPaper(const RunOptions& options) {
  // A traced run spends half its budget on the untraced baseline and the
  // other half repeating the first of those segments with telemetry.
  const Plan plan =
      MakePlan(options, options.trace ? options.seconds / 2 : options.seconds,
               kCyclesPerS, kSegmentCycles, 40);
  const long cycles = plan.cycles;
  const int traced_segments = options.trace ? TracedSegments(plan, 1.5) : 0;
  const sgm::LInfDistance function{Vector(sgm::JesterLikeConfig{}.num_buckets)};
  RunReport report;

  // Gate: segment 0 through Simulate() must give the same totals.
  Totals expected;
  {
    const std::uint64_t seed = SegmentSeed(options.seed, 0);
    auto source = MakeSource(seed);
    auto protocol = MakeProtocol(function, *source, seed);
    expected = Totals::Of(
        sgm::Simulate(source.get(), protocol.get(), cycles).metrics);
  }

  std::vector<double> setups;
  RunTimings untraced, untraced_subset;
  long messages = 0, fn_cycles = 0;
  double bytes = 0.0;
  for (int k = 0; k < plan.segments; ++k) {
    CycleTimings segment(kHostReference);
    const SegmentOutcome pass = RunSegment(SegmentSeed(options.seed, k),
                                           cycles, function, nullptr, &segment);
    report.attempted += cycles;
    setups.push_back(pass.setup_s);
    if (k == 0 && !(pass.end == expected)) {
      report.Fail("totals differ from Simulate() on the same seed");
    }
    messages += pass.end.total_messages - pass.after_init.total_messages;
    bytes += pass.end.bytes - pass.after_init.bytes;
    fn_cycles += pass.end.fn_cycles;
    untraced.AddSegment(segment, kSites);
    if (k < traced_segments) untraced_subset.AddSegment(segment, kSites);
  }
  for (int k = 0; static_cast<int>(setups.size()) < kMinSetups; ++k) {
    setups.push_back(
        RunSegment(SegmentSeed(options.seed, k), 0, function, nullptr, nullptr)
            .setup_s);
  }

  auto& m = report.metrics;
  untraced.Report(&report);
  m["setup_s"] = Quantile(setups, 0.5);
  m["segments"] = plan.segments;
  const double n = static_cast<double>(cycles) * plan.segments;
  // The simulator's wire carries exactly the paper's messages, so its
  // transport figures equal the paper-comparable ones.
  m["paper_msgs_per_cycle"] = static_cast<double>(messages) / n;
  m["transport_msgs_per_cycle"] = m["paper_msgs_per_cycle"];
  m["transport_bytes_per_cycle"] = bytes / n;
  const double fn_rate = static_cast<double>(fn_cycles) / n;
  m["fn_cycle_rate"] = fn_rate;
  m["belief_accuracy"] = 1.0 - fn_rate;
  if (fn_rate > kDelta + 0.01) report.Fail("fn_cycle_rate above delta + 0.01");
  if (!options.trace) return report;

  // Traced segments: the protocol's own monitor/full-sync histograms.
  RunTimings traced;
  double monitor_ns = 0.0, full_sync_ns = 0.0, trace_bytes = 0.0;
  long monitors = 0, full_syncs = 0, trace_events = 0;
  long long telemetry_ns = 0;
  for (int k = 0; k < traced_segments; ++k) {
    sgm::Telemetry telemetry;
    CycleTimings segment(kHostReference);
    const SegmentOutcome pass = RunSegment(
        SegmentSeed(options.seed, k), cycles, function, &telemetry, &segment);
    traced.AddSegment(segment, kSites);
    report.attempted += cycles;
    if (k == 0 && !(pass.end == expected)) {
      report.Fail("traced totals differ from Simulate() on the same seed");
    }
    monitor_ns += pass.monitor_ns_sum;
    monitors += pass.monitor_count;
    full_sync_ns += pass.full_sync_ns_sum;
    full_syncs += pass.full_sync_count;
    const sgm::TraceLog::SelfCost cost = telemetry.trace.self_cost();
    telemetry_ns += cost.telemetry_ns;
    trace_events += cost.events_emitted;
    trace_bytes += TraceBytes(telemetry.trace);
  }
  const double tn = static_cast<double>(cycles) * traced_segments;
  const auto mean = [](double sum, long count) {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  };
  m["gm.monitor_ns"] = mean(monitor_ns, monitors);
  m["gm.full_sync_ns"] = mean(full_sync_ns, full_syncs);
  m["obs.telemetry_ns_per_cycle"] = static_cast<double>(telemetry_ns) / tn;
  m["obs.trace_events_per_cycle"] = static_cast<double>(trace_events) / tn;
  m["obs.trace_bytes_per_cycle"] = trace_bytes / tn;
  // OnCycle wall time not covered by the monitoring-phase timer.
  m["trace.unattributed_pct"] =
      traced.raw_total_ns() > 0.0
          ? 100.0 * (1.0 - monitor_ns / traced.raw_total_ns())
          : 0.0;
  m["trace.overhead_pct"] = OverheadPct(traced, untraced_subset);
  return report;
}

}  // namespace perfbench

// loopback-3: a CoordinatorServer and three in-process SiteClient threads
// over loopback TCP, on the Reuters-like χ² stream at T = 0.5. The only
// workload that runs the codec, the syscalls, the flush barriers and the
// thread-per-connection tier.
//
// Every site's vectors are generated before cycle 1, so site threads do no
// generation inside a cycle. A gate replays the same inputs through the
// faultless RuntimeDriver and requires the same belief, epoch and paper
// counters cycle by cycle.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/rng.h"
#include "data/reuters_like.h"
#include "functions/chi_square.h"
#include "obs/metric_registry.h"
#include "obs/telemetry.h"
#include "runtime/coordinator_server.h"
#include "runtime/driver.h"
#include "runtime/site_client.h"

namespace perfbench {
namespace {

using sgm::Vector;

constexpr int kSites = 3;
constexpr std::size_t kWindow = 200;
constexpr double kThreshold = 0.5;
constexpr long kSegmentCycles = 2000;
constexpr double kCyclesPerS = 4000.0;  // calibrated pace, see MakePlan
constexpr double kTraceSampleRate = 0.1;
constexpr HostReference kHostReference = HostReference::kCompute;

sgm::RuntimeConfig NodeConfig(std::uint64_t seed, double max_step,
                              double drift_cap, sgm::Telemetry* telemetry) {
  sgm::RuntimeConfig config;
  config.threshold = kThreshold;
  config.max_step_norm = max_step;
  config.drift_norm_cap = drift_cap;
  config.seed = sgm::DeriveSeed(seed, 202);
  config.telemetry = telemetry;
  config.trace_sample_rate = kTraceSampleRate;
  return config;
}

/// Pre-generated inputs: inputs[c][site] is what `site` observes in cycle
/// c (cycle 0 is the initialization sync).
struct Inputs {
  std::vector<std::vector<Vector>> vectors;
  double max_step = 0.0;
  double drift_cap = 0.0;
};

Inputs Generate(std::uint64_t seed, long cycles) {
  sgm::ReutersLikeConfig config;
  config.num_sites = kSites;
  config.window = kWindow;
  config.seed = sgm::DeriveSeed(seed, 101);
  sgm::ReutersLikeGenerator source(config);
  Inputs inputs;
  inputs.max_step = source.max_step_norm();
  inputs.drift_cap = source.max_drift_norm();
  inputs.vectors.resize(static_cast<std::size_t>(cycles + 1));
  for (auto& locals : inputs.vectors) source.Advance(&locals);
  return inputs;
}

/// Registry figures a segment reads before and after its timed cycles.
struct Counters {
  long encodes = 0;
  double encode_ns = 0.0;
  long decodes = 0;
  double decode_ns = 0.0;
  long frames_written = 0;
  double bytes_written = 0.0;
  long paper_messages = 0;
  long long telemetry_ns = 0;
  long trace_events = 0;
};

Counters Snapshot(const sgm::CoordinatorServer& server,
                  const sgm::Telemetry& telemetry) {
  sgm::MetricRegistry& process = sgm::MetricRegistry::Default();
  const sgm::Histogram* encode =
      process.GetHistogram("serialization.encode_ns");
  const sgm::Histogram* decode =
      process.GetHistogram("serialization.decode_ns");
  Counters c;
  c.encodes = encode->count();
  c.encode_ns = encode->sum();
  c.decodes = decode->count();
  c.decode_ns = decode->sum();
  c.frames_written = server.transport().transport_messages_sent();
  c.bytes_written = server.transport().transport_bytes_sent();
  c.paper_messages = server.PaperMessages();
  const sgm::TraceLog::SelfCost cost = telemetry.trace.self_cost();
  c.telemetry_ns = cost.telemetry_ns;
  c.trace_events = cost.events_emitted;
  return c;
}

struct SegmentOutcome {
  bool ok = false;
  double setup_s = 0.0;
  long cycles_run = 0;
  long fn_cycles = 0;
  std::vector<CycleRecord> records;
  Counters begin;  ///< after the initialization sync
  Counters end;
  double barrier_wait_ms_sum = 0.0;
  long barrier_waits = 0;
  double barrier_wait_ms_p99 = 0.0;
  double trace_bytes = 0.0;
};

SegmentOutcome RunSegment(const Inputs& inputs, std::uint64_t seed,
                          long cycles, const sgm::MonitoredFunction& function,
                          CycleTimings* timings) {
  SegmentOutcome out;
  sgm::Telemetry telemetry;
  NormalizedTimer setup(kHostReference);
  setup.Start();
  sgm::CoordinatorServerConfig server_config;
  server_config.num_sites = kSites;
  server_config.runtime =
      NodeConfig(seed, inputs.max_step, inputs.drift_cap, &telemetry);
  sgm::CoordinatorServer server(function, server_config);
  if (!server.Listen()) return out;

  std::atomic<bool> sites_ok{true};
  std::vector<std::thread> threads;
  for (int id = 0; id < kSites; ++id) {
    threads.emplace_back([&, id] {
      sgm::SiteClientConfig config;
      config.site_id = id;
      config.num_sites = kSites;
      config.port = server.port();
      config.runtime =
          NodeConfig(seed, inputs.max_step, inputs.drift_cap, nullptr);
      sgm::SiteClient client(function, config);
      if (!client.Connect()) {
        sites_ok.store(false);
        return;
      }
      const long last = static_cast<long>(inputs.vectors.size()) - 1;
      if (!client.Run([&](long cycle) {
            return inputs.vectors[static_cast<std::size_t>(
                std::min(cycle, last))][static_cast<std::size_t>(id)];
          })) {
        sites_ok.store(false);
      }
    });
  }

  bool ok = server.WaitForSites() && server.RunCycle();
  out.setup_s = setup.StopNs() * 1e-9;
  out.begin = Snapshot(server, telemetry);
  const sgm::Histogram* barrier =
      telemetry.registry.GetHistogram("barrier.wait_ms");
  const long barrier_count0 = barrier->count();
  const double barrier_sum0 = barrier->sum();

  std::unique_ptr<sgm::MonitoredFunction> oracle = function.Clone();
  long seen_full_syncs = 0;
  Vector mean(3);
  for (long t = 1; ok && t <= cycles; ++t) {
    const std::int64_t epoch_before = server.Epoch();
    const std::int64_t start = NowNs();
    ok = server.RunCycle();
    const double ns = static_cast<double>(NowNs() - start);
    if (!ok) break;
    ++out.cycles_run;
    CycleRecord r;
    r.believes_above = server.BelievesAbove();
    r.epoch = server.Epoch();
    r.paper_messages = server.PaperMessages();
    r.full_syncs = server.FullSyncs();
    r.partial_resolutions = server.PartialResolutions();
    if (timings != nullptr) timings->Add(ns, r.epoch != epoch_before);
    out.records.push_back(r);

    if (r.full_syncs > seen_full_syncs) {
      seen_full_syncs = r.full_syncs;
      oracle->OnSync(server.Estimate());
    }
    mean.SetZero();
    for (const Vector& v : inputs.vectors[static_cast<std::size_t>(t)]) {
      mean += v;
    }
    mean /= static_cast<double>(kSites);
    if ((oracle->Value(mean) > kThreshold) != r.believes_above) {
      ++out.fn_cycles;
    }
  }
  if (timings != nullptr) timings->Finish();
  out.end = Snapshot(server, telemetry);
  out.barrier_waits = barrier->count() - barrier_count0;
  out.barrier_wait_ms_sum = barrier->sum() - barrier_sum0;
  out.barrier_wait_ms_p99 = barrier->Quantile(0.99);
  server.Shutdown();
  out.trace_bytes = TraceBytes(telemetry.trace);
  for (std::thread& t : threads) t.join();
  out.ok = ok && sites_ok.load();
  return out;
}

/// The same inputs through the faultless RuntimeDriver, for the parity gate.
std::vector<CycleRecord> DriverReference(const Inputs& inputs,
                                         std::uint64_t seed, long cycles,
                                         const sgm::MonitoredFunction& f) {
  sgm::RuntimeDriver driver(
      kSites, f, NodeConfig(seed, inputs.max_step, inputs.drift_cap, nullptr));
  driver.Initialize(inputs.vectors[0]);
  std::vector<CycleRecord> records;
  for (long t = 1; t <= cycles; ++t) {
    driver.Tick(inputs.vectors[static_cast<std::size_t>(t)]);
    CycleRecord r;
    r.believes_above = driver.coordinator().BelievesAbove();
    r.epoch = driver.coordinator().epoch();
    r.paper_messages = driver.bus().messages_sent();
    r.full_syncs = driver.coordinator().full_syncs();
    r.partial_resolutions = driver.coordinator().partial_resolutions();
    records.push_back(r);
  }
  return records;
}

/// Sums of the per-segment counter deltas.
struct Totals {
  long cycles = 0;
  long fn_cycles = 0;
  Counters delta;
  double barrier_wait_ms_sum = 0.0;
  long barrier_waits = 0;
  double barrier_wait_ms_p99 = 0.0;
  double trace_bytes = 0.0;

  void Add(const SegmentOutcome& pass) {
    cycles += pass.cycles_run;
    fn_cycles += pass.fn_cycles;
    delta.encodes += pass.end.encodes - pass.begin.encodes;
    delta.encode_ns += pass.end.encode_ns - pass.begin.encode_ns;
    delta.decodes += pass.end.decodes - pass.begin.decodes;
    delta.decode_ns += pass.end.decode_ns - pass.begin.decode_ns;
    delta.frames_written += pass.end.frames_written - pass.begin.frames_written;
    delta.bytes_written += pass.end.bytes_written - pass.begin.bytes_written;
    delta.paper_messages += pass.end.paper_messages - pass.begin.paper_messages;
    delta.telemetry_ns += pass.end.telemetry_ns - pass.begin.telemetry_ns;
    delta.trace_events += pass.end.trace_events - pass.begin.trace_events;
    barrier_wait_ms_sum += pass.barrier_wait_ms_sum;
    barrier_waits += pass.barrier_waits;
    barrier_wait_ms_p99 =
        std::max(barrier_wait_ms_p99, pass.barrier_wait_ms_p99);
    trace_bytes += pass.trace_bytes;
  }
};

}  // namespace

RunReport RunLoopback(const RunOptions& options) {
  // A traced run spends half its budget on the untraced baseline and the
  // other half repeating those segments, reading the registries.
  const Plan plan =
      MakePlan(options, options.trace ? options.seconds / 2 : options.seconds,
               kCyclesPerS, kSegmentCycles, 20);
  const long cycles = plan.cycles;
  const int traced_segments = options.trace ? TracedSegments(plan, 1.0) : 0;
  const sgm::ChiSquare function(static_cast<double>(kWindow));
  RunReport report;

  std::vector<double> setups;
  RunTimings untraced, untraced_subset, traced;
  Totals counts, traced_counts;
  const auto run_segment = [&](int k, Totals* totals, CycleTimings* timings) {
    const std::uint64_t seed = SegmentSeed(options.seed, k);
    const Inputs inputs = Generate(seed, cycles);
    SegmentOutcome pass = RunSegment(inputs, seed, cycles, function, timings);
    report.attempted += cycles;
    report.failed += cycles - pass.cycles_run;
    setups.push_back(pass.setup_s);
    if (!pass.ok) {
      report.Fail("loopback segment " + std::to_string(k) +
                  " failed (barrier timeout or lost site)");
      return false;
    }
    if (const std::string diff = CompareRecords(
            DriverReference(inputs, seed, cycles, function), pass.records);
        !diff.empty()) {
      report.Fail("loopback diverged from RuntimeDriver in segment " +
                  std::to_string(k) + ": " + diff);
    }
    totals->Add(pass);
    return true;
  };

  for (int k = 0; k < plan.segments; ++k) {
    CycleTimings segment(kHostReference);
    if (!run_segment(k, &counts, &segment)) return report;
    untraced.AddSegment(segment, kSites);
    if (k < traced_segments) untraced_subset.AddSegment(segment, kSites);
  }
  for (int k = 0; k < traced_segments; ++k) {
    CycleTimings segment(kHostReference);
    if (!run_segment(k, &traced_counts, &segment)) return report;
    traced.AddSegment(segment, kSites);
  }
  for (int k = 0; static_cast<int>(setups.size()) < kMinSetups; ++k) {
    const std::uint64_t seed = SegmentSeed(options.seed, k);
    setups.push_back(
        RunSegment(Generate(seed, 0), seed, 0, function, nullptr).setup_s);
  }

  auto& m = report.metrics;
  untraced.Report(&report);
  m["setup_s"] = Quantile(setups, 0.5);
  const double n = static_cast<double>(counts.cycles);
  m["paper_msgs_per_cycle"] =
      static_cast<double>(counts.delta.paper_messages) / n;
  // Every frame on the wire, either direction, is decoded exactly once by
  // its receiver in this process; bytes are what the coordinator writes.
  m["transport_msgs_per_cycle"] = static_cast<double>(counts.delta.decodes) / n;
  m["transport_bytes_per_cycle"] = counts.delta.bytes_written / n;
  const double fn_rate = static_cast<double>(counts.fn_cycles) / n;
  m["fn_cycle_rate"] = fn_rate;
  m["belief_accuracy"] = 1.0 - fn_rate;
  m["segments"] = plan.segments;
  if (fn_rate > sgm::RuntimeConfig{}.delta + 0.01) {
    report.Fail("fn_cycle_rate above delta + 0.01");
  }
  if (!options.trace) return report;

  const Counters& d = traced_counts.delta;
  const double tn = static_cast<double>(traced_counts.cycles);
  const auto mean = [](double sum, long count) {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  };
  m["serialization.encode_ns"] = mean(d.encode_ns, d.encodes);
  m["serialization.decode_ns"] = mean(d.decode_ns, d.decodes);
  m["serialization.frames_per_cycle"] = static_cast<double>(d.decodes) / tn;
  m["coordinator_server.barrier_wait_us_mean"] =
      1e3 *
      mean(traced_counts.barrier_wait_ms_sum, traced_counts.barrier_waits);
  m["coordinator_server.barrier_wait_us_p99"] =
      1e3 * traced_counts.barrier_wait_ms_p99;
  m["socket_transport.frames_per_cycle"] =
      static_cast<double>(d.frames_written) / tn;
  m["socket_transport.bytes_per_cycle"] = d.bytes_written / tn;
  m["obs.telemetry_ns_per_cycle"] = static_cast<double>(d.telemetry_ns) / tn;
  m["obs.trace_events_per_cycle"] = static_cast<double>(d.trace_events) / tn;
  m["obs.trace_bytes_per_cycle"] = traced_counts.trace_bytes / tn;
  // Only the barrier wait is visible on the cycle thread from outside the
  // library; the rest of RunCycle is unattributed.
  m["trace.unattributed_pct"] =
      traced.raw_total_ns() > 0.0
          ? 100.0 * (1.0 - traced_counts.barrier_wait_ms_sum * 1e6 /
                               traced.raw_total_ns())
          : 0.0;
  m["trace.overhead_pct"] = OverheadPct(traced, untraced_subset);
  return report;
}

}  // namespace perfbench

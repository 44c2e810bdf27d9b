// Reliability-layer cost baseline: runs the message-passing runtime (SGM,
// L∞-distance, Jester-like workload) over a fixed seed × drop-rate matrix
// and emits one JSON record per cell — paper-comparable traffic, transport
// totals (retransmissions/acks included), the transport-vs-paper overhead
// split (computed from the telemetry registry snapshot), sync counts,
// reliability-layer activity, and wall time.
//
// The committed BENCH_reliability.json at the repo root is the output of
//   bench_reliability > BENCH_reliability.json
// All counters are seed-deterministic, so a diff in anything except
// wall_time_ms and the full_sync_ns_p* latency quantiles (both wall-clock
// measurements) is a behaviour change and should be reviewed as one;
// tools/bench_drift_check compares the paper-comparable columns against the
// committed baseline and fails CI on >10% regression. The top-level
// schema_version increments whenever columns are added or renamed, so the
// drift check can warn (not fail) across schema generations.
//
// Flags:
//   --metrics-out=PATH  write the last cell's full metric-registry JSON
//   --trace=PATH        write the whole matrix's trace (JSONL, one event
//                       per line; cells delimited by cell_begin events)
//   --chaos             run the socket-runtime recovery matrix instead: an
//                       in-process loopback deployment per seed with
//                       injected connection resets, measuring
//                       time-to-reconverge (p50/p99 across resets) and the
//                       paper-message overhead of the rejoin handshake
//                       against a fault-free twin. Committed baseline:
//                       bench_reliability --chaos > BENCH_chaos.json
//                       (reconnect_ms_* and wall_time_ms are wall-clock;
//                       everything else is seed-deterministic).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "data/jester_like.h"
#include "data/synthetic.h"
#include "functions/l2_norm.h"
#include "functions/linf_distance.h"
#include "obs/telemetry.h"
#include "runtime/coordinator_server.h"
#include "runtime/driver.h"
#include "runtime/site_client.h"

namespace {

struct Cell {
  std::uint64_t seed = 1;
  double drop = 0.0;
  double duplicate = 0.0;
  int max_delay_rounds = 0;
};

constexpr int kNumSites = 24;
constexpr long kCycles = 300;
/// Bump when per-cell columns are added/renamed (see header comment).
/// 1 = the seed layout; 2 = + schema_version, full_sync_ns_p50/p95/p99.
constexpr long kSchemaVersion = 2;
constexpr std::size_t kNumBuckets = 8;
constexpr std::size_t kWindow = 50;
constexpr double kThreshold = 5.0;

/// Runs one cell with a fresh Telemetry and prints its JSON record. The
/// per-cell cost split is read back from the metric registry — the same
/// snapshot a deployment's metrics endpoint would serve — rather than from
/// the component accessors, exercising the publication path end to end.
/// `trace` (nullable) collects the cell's protocol events.
void RunCell(const Cell& cell, bool first, sgm::TraceLog* trace,
             sgm::Telemetry* telemetry) {
  sgm::JesterLikeConfig workload;
  workload.num_sites = kNumSites;
  workload.window = kWindow;
  workload.num_buckets = kNumBuckets;
  workload.seed = sgm::DeriveSeed(cell.seed, 101);

  sgm::JesterLikeGenerator source(workload);
  const sgm::LInfDistance function{sgm::Vector(kNumBuckets)};

  sgm::RuntimeConfig node;
  node.threshold = kThreshold;
  node.max_step_norm = source.max_step_norm();
  node.drift_norm_cap = source.max_drift_norm();
  node.seed = sgm::DeriveSeed(cell.seed, 202);
  node.telemetry = telemetry;

  sgm::SimTransportConfig transport;
  transport.seed = sgm::DeriveSeed(cell.seed, 303);
  transport.drop_probability = cell.drop;
  transport.duplicate_probability = cell.duplicate;
  transport.max_delay_rounds = cell.max_delay_rounds;

  sgm::RuntimeDriver driver(kNumSites, function, node, transport);

  const auto start = std::chrono::steady_clock::now();
  std::vector<sgm::Vector> locals;
  source.Advance(&locals);
  driver.Initialize(locals);
  for (long t = 1; t <= kCycles; ++t) {
    source.Advance(&locals);
    driver.Tick(locals);
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  // Every counter below comes from the published registry snapshot.
  sgm::MetricRegistry& reg = telemetry->registry;
  const long paper_messages = reg.GetCounter("transport.paper_messages")->value();
  const double paper_bytes = reg.GetGauge("transport.paper_bytes")->value();
  const long total_messages = reg.GetCounter("transport.total_messages")->value();
  const double total_bytes = reg.GetGauge("transport.total_bytes")->value();
  const sgm::CoordinatorNode& coordinator = driver.coordinator();
  std::printf(
      "%s  {\"seed\": %llu, \"drop\": %.2f, \"duplicate\": %.2f,"
      " \"max_delay_rounds\": %d, \"sites\": %d, \"cycles\": %ld,\n"
      "   \"paper_messages\": %ld, \"paper_bytes\": %.0f,"
      " \"transport_messages\": %ld, \"transport_bytes\": %.0f,\n"
      "   \"overhead_messages\": %ld, \"overhead_bytes\": %.0f,"
      " \"overhead_message_ratio\": %.4f,\n"
      "   \"full_syncs\": %ld, \"degraded_syncs\": %ld,"
      " \"partial_resolutions\": %ld,\n"
      "   \"retransmissions\": %ld, \"acks\": %ld,"
      " \"duplicates_suppressed\": %ld, \"give_ups\": %ld,"
      " \"rejoins_granted\": %ld, \"stale_epoch_drops\": %ld,\n"
      "   \"full_sync_ns_p50\": %.0f, \"full_sync_ns_p95\": %.0f,"
      " \"full_sync_ns_p99\": %.0f, \"wall_time_ms\": %.1f}",
      first ? "" : ",\n",
      static_cast<unsigned long long>(cell.seed), cell.drop, cell.duplicate,
      cell.max_delay_rounds, kNumSites, kCycles, paper_messages, paper_bytes,
      total_messages, total_bytes, total_messages - paper_messages,
      total_bytes - paper_bytes,
      paper_messages > 0
          ? static_cast<double>(total_messages - paper_messages) /
                static_cast<double>(paper_messages)
          : 0.0,
      coordinator.full_syncs(), coordinator.degraded_syncs(),
      coordinator.partial_resolutions(),
      reg.GetCounter("transport.retransmissions")->value(),
      reg.GetCounter("transport.acks_sent")->value(),
      reg.GetCounter("transport.duplicates_suppressed")->value(),
      reg.GetCounter("transport.give_ups")->value(),
      reg.GetCounter("coordinator.rejoins_granted")->value(),
      reg.GetCounter("coordinator.stale_epoch_drops")->value() +
          reg.GetCounter("site.stale_epoch_drops")->value(),
      reg.GetHistogram("coordinator.full_sync_ns")->Quantile(0.50),
      reg.GetHistogram("coordinator.full_sync_ns")->Quantile(0.95),
      reg.GetHistogram("coordinator.full_sync_ns")->Quantile(0.99),
      wall_ms);

  if (trace != nullptr) {
    // Append this cell's events to the matrix-wide log (each cell's own
    // TraceLog restarts ts at 0; the cell_begin marker delimits them).
    trace->Emit(sgm::TraceEventId::kCellBegin, -1,
                {{"seed", static_cast<std::int64_t>(cell.seed)},
                 {"drop", cell.drop}});
    for (const sgm::TraceEvent& event : telemetry->trace.events()) {
      trace->Emit(event.cat, event.name, event.actor, event.args);
    }
  }
}

// ── Socket-runtime recovery matrix (--chaos) ─────────────────────────────

constexpr int kChaosSites = 4;
constexpr long kChaosCycles = 200;
constexpr int kChaosResets = 8;
// Straggler injection (schema v2): one-shot processing stalls long enough
// to span several barrier deadlines, driving the lagging verdict and the
// quarantine → catch-up → rejoin loop whose latency this bench records.
constexpr int kChaosStalls = 3;
constexpr long kChaosStallMs = 120;
constexpr long kChaosBarrierDeadlineMs = 25;
constexpr std::size_t kChaosSendQueueFrames = 1024;
// Pace cycles so a stalled site's recovery lands inside the run (an
// unpaced loopback retires all 200 cycles before a 120 ms stall ends).
constexpr long kChaosPaceMs = 2;
constexpr long kChaosSchemaVersion = 2;

sgm::RuntimeConfig ChaosNodeConfig(std::uint64_t seed,
                                   const sgm::SyntheticDriftGenerator& probe) {
  sgm::RuntimeConfig config;
  config.threshold = 3.0;
  config.max_step_norm = probe.max_step_norm();
  config.drift_norm_cap = probe.max_drift_norm();
  config.seed = sgm::DeriveSeed(seed, 404);
  return config;
}

sgm::SyntheticDriftConfig ChaosWorkloadConfig(std::uint64_t seed) {
  sgm::SyntheticDriftConfig config;
  config.num_sites = kChaosSites;
  config.dim = 4;
  config.seed = sgm::DeriveSeed(seed, 505);
  config.global_period = 60;
  config.global_amplitude = 2.5;
  return config;
}

struct ChaosRun {
  bool ok = false;
  long resets_injected = 0;
  long stalls_injected = 0;
  long site_rehellos = 0;
  long reconnects = 0;
  long paper_messages = 0;
  long full_syncs = 0;
  long degraded_cycles = 0;
  long lag_quarantines = 0;
  std::vector<double> reconnect_ms;  ///< injection → observed re-hello
  /// Lagging verdict → lagging_sites back to 0, in coordinator cycles:
  /// the bounded-staleness window a quarantined straggler lives through.
  std::vector<double> quarantine_recovery_cycles;
  double wall_ms = 0.0;
};

/// One in-process loopback deployment: a CoordinatorServer plus kChaosSites
/// SiteClient threads. With `inject`, the main thread severs one site's
/// connection every ~20 cycles and measures the wall time until the
/// coordinator sees the matching re-hello (sampled at cycle granularity —
/// the same resolution an operator's per-cycle metrics would give).
ChaosRun RunChaosDeployment(std::uint64_t seed, bool inject) {
  using Clock = std::chrono::steady_clock;
  ChaosRun run;
  const sgm::SyntheticDriftConfig workload = ChaosWorkloadConfig(seed);
  sgm::SyntheticDriftGenerator probe(workload);
  const sgm::L2Norm norm;

  sgm::CoordinatorServerConfig server_config;
  server_config.num_sites = kChaosSites;
  server_config.runtime = ChaosNodeConfig(seed, probe);
  // Straggler tolerance on for both twins: the fault-free baseline proves
  // the deadline path is inert without stalls (0 degraded cycles).
  server_config.barrier_deadline_ms = kChaosBarrierDeadlineMs;
  server_config.send_queue_frames = kChaosSendQueueFrames;
  sgm::CoordinatorServer server(norm, server_config);
  if (!server.Listen()) return run;

  std::vector<std::unique_ptr<sgm::SiteClient>> clients;
  for (int id = 0; id < kChaosSites; ++id) {
    sgm::SiteClientConfig config;
    config.site_id = id;
    config.num_sites = kChaosSites;
    config.port = server.port();
    config.runtime = ChaosNodeConfig(seed, probe);
    config.runtime.socket_retry.max_attempts = 200;
    config.runtime.socket_retry.base_backoff_ms = 1;
    config.runtime.socket_retry.max_backoff_ms = 20;
    config.runtime.socket_retry.jitter_seed = sgm::DeriveSeed(seed, 606);
    config.max_reconnects = kChaosResets + 4;
    clients.push_back(std::make_unique<sgm::SiteClient>(norm, config));
  }

  std::atomic<bool> sites_ok{true};
  std::vector<std::thread> threads;
  threads.reserve(kChaosSites);
  for (int id = 0; id < kChaosSites; ++id) {
    threads.emplace_back([id, &clients, &workload, &sites_ok] {
      sgm::SyntheticDriftGenerator generator(workload);
      if (!clients[id]->Connect()) {
        sites_ok.store(false);
        return;
      }
      std::vector<sgm::Vector> locals;
      long advanced = 0;
      if (!clients[id]->Run([&](long cycle) {
            while (advanced <= cycle) {
              generator.Advance(&locals);
              ++advanced;
            }
            return locals[id];
          })) {
        sites_ok.store(false);
      }
    });
  }

  const auto start = Clock::now();
  bool cycles_ok = server.WaitForSites();
  long seen_rehellos = 0;
  bool awaiting = false;
  Clock::time_point injected_at{};
  long seen_quarantines = 0;
  long quarantined_at_cycle = -1;
  for (long cycle = 0; cycles_ok && cycle <= kChaosCycles; ++cycle) {
    cycles_ok = server.RunCycle();
    std::this_thread::sleep_for(std::chrono::milliseconds(kChaosPaceMs));
    if (awaiting && server.SiteRehellos() > seen_rehellos) {
      run.reconnect_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    injected_at)
              .count());
      seen_rehellos = server.SiteRehellos();
      awaiting = false;
    }
    const sgm::CoordinatorServer::Health health = server.GetHealth();
    if (health.lag_quarantines > seen_quarantines) {
      seen_quarantines = health.lag_quarantines;
      quarantined_at_cycle = cycle;
    }
    if (quarantined_at_cycle >= 0 && health.lagging_sites == 0) {
      run.quarantine_recovery_cycles.push_back(
          static_cast<double>(cycle - quarantined_at_cycle));
      quarantined_at_cycle = -1;
    }
    if (inject && !awaiting && run.resets_injected < kChaosResets &&
        cycle % 20 == 10) {
      const int victim =
          static_cast<int>(run.resets_injected) % kChaosSites;
      injected_at = Clock::now();
      clients[victim]->InjectConnectionReset();
      ++run.resets_injected;
      awaiting = true;
    }
    // Stall a different site than the reset rotation is touching: the
    // sleep spans several barrier deadlines, so the coordinator degrades,
    // quarantines the straggler, and re-anchors it once it catches up.
    if (inject && run.stalls_injected < kChaosStalls &&
        cycle % 60 == 15) {
      const int victim =
          static_cast<int>(run.stalls_injected + 1) % kChaosSites;
      clients[victim]->InjectProcessingStall(kChaosStallMs);
      ++run.stalls_injected;
    }
  }
  const sgm::CoordinatorServer::Health final_health = server.GetHealth();
  run.degraded_cycles = final_health.degraded_cycles;
  run.lag_quarantines = final_health.lag_quarantines;
  server.Shutdown();
  for (std::thread& t : threads) t.join();
  run.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                          start)
                    .count();

  run.ok = cycles_ok && sites_ok.load();
  run.site_rehellos = server.SiteRehellos();
  run.paper_messages = server.PaperMessages();
  run.full_syncs = server.FullSyncs();
  for (const auto& client : clients) run.reconnects += client->reconnects();
  return run;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

int RunChaosMatrix() {
  std::printf("{\"benchmark\": \"socket_chaos\", \"schema_version\": %ld,"
              " \"workload\": \"synthetic/l2\",\n \"runs\": [\n",
              kChaosSchemaVersion);
  const std::uint64_t kSeeds[] = {1, 2, 3};
  bool first = true;
  bool all_ok = true;
  for (const std::uint64_t seed : kSeeds) {
    // The fault-free twin isolates the rejoin handshake's paper-message
    // cost: same seeds, same schedule, no injected resets.
    const ChaosRun baseline = RunChaosDeployment(seed, /*inject=*/false);
    const ChaosRun faulted = RunChaosDeployment(seed, /*inject=*/true);
    all_ok = all_ok && baseline.ok && faulted.ok;
    const double overhead =
        baseline.paper_messages > 0
            ? static_cast<double>(faulted.paper_messages -
                                  baseline.paper_messages) /
                  static_cast<double>(baseline.paper_messages)
            : 0.0;
    std::printf(
        "%s  {\"seed\": %llu, \"sites\": %d, \"cycles\": %ld,"
        " \"resets_injected\": %ld, \"stalls_injected\": %ld,\n"
        "   \"site_rehellos\": %ld, \"site_reconnects\": %ld,"
        " \"reconnect_ms_p50\": %.2f, \"reconnect_ms_p99\": %.2f,\n"
        "   \"degraded_cycles\": %ld, \"baseline_degraded_cycles\": %ld,"
        " \"lag_quarantines\": %ld,\n"
        "   \"quarantine_recovery_cycles_p50\": %.1f,"
        " \"quarantine_recovery_cycles_p99\": %.1f,\n"
        "   \"paper_messages\": %ld, \"baseline_paper_messages\": %ld,"
        " \"rejoin_message_overhead_ratio\": %.4f,\n"
        "   \"full_syncs\": %ld, \"baseline_full_syncs\": %ld,"
        " \"wall_time_ms\": %.1f}",
        first ? "" : ",\n", static_cast<unsigned long long>(seed),
        kChaosSites, kChaosCycles, faulted.resets_injected,
        faulted.stalls_injected, faulted.site_rehellos, faulted.reconnects,
        Percentile(faulted.reconnect_ms, 0.50),
        Percentile(faulted.reconnect_ms, 0.99), faulted.degraded_cycles,
        baseline.degraded_cycles, faulted.lag_quarantines,
        Percentile(faulted.quarantine_recovery_cycles, 0.50),
        Percentile(faulted.quarantine_recovery_cycles, 0.99),
        faulted.paper_messages, baseline.paper_messages, overhead,
        faulted.full_syncs, baseline.full_syncs, faulted.wall_ms);
    first = false;
  }
  std::printf("\n]}\n");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_out;
  std::string trace_out;
  bool chaos = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::strlen("--metrics-out="));
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace="));
    } else if (arg == "--chaos") {
      chaos = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (chaos) return RunChaosMatrix();

  // Drop-rate tiers of the acceptance matrix: clean, moderate, hostile.
  // Duplicates/delays scale with the drop tier, like the stress profiles.
  const double kDrops[] = {0.0, 0.10, 0.30};
  const std::uint64_t kSeeds[] = {1, 2, 3};

  sgm::TraceLog matrix_trace;
  // The final (hostile) cell's registry survives the loop for --metrics-out.
  std::unique_ptr<sgm::Telemetry> last_cell_telemetry;

  std::printf("{\"benchmark\": \"reliability_layer\","
              " \"schema_version\": %ld,"
              " \"workload\": \"jester_like/linf\",\n \"runs\": [\n",
              kSchemaVersion);
  bool first = true;
  for (const double drop : kDrops) {
    for (const std::uint64_t seed : kSeeds) {
      Cell cell;
      cell.seed = seed;
      cell.drop = drop;
      cell.duplicate = drop > 0.0 ? 0.05 : 0.0;
      cell.max_delay_rounds = drop > 0.0 ? 2 : 0;
      auto telemetry = std::make_unique<sgm::Telemetry>();
      RunCell(cell, first, trace_out.empty() ? nullptr : &matrix_trace,
              telemetry.get());
      first = false;
      last_cell_telemetry = std::move(telemetry);
    }
  }
  std::printf("\n]}\n");

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
      return 1;
    }
    last_cell_telemetry->WriteMetricsJson(out);
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", trace_out.c_str());
      return 1;
    }
    matrix_trace.WriteJsonl(out);
  }
  return 0;
}

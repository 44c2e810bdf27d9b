// Scale sweep: runs the message-passing runtime (SGM, L∞-distance,
// Jester-like workload) at increasing site counts and emits one JSON row
// per deployment size — update throughput, per-sync-cycle wall latency
// quantiles, the paper-vs-transport cost split, and what the telemetry
// plane costs end to end.
//
// Every row runs its deployment kRepeats times with telemetry attached and
// kRepeats times detached, on the same seed and cycles, alternating which
// goes first. The wall-clock columns come from the attached run with the
// median wall time; telemetry_e2e_overhead_pct is the attached median wall
// time over the detached one, minus one, in percent. It counts everything
// telemetry costs (sampled-out emits, recorded events, metric publishing),
// which the trace's own self-cost meter (telemetry_ns, recorded events
// only) cannot see.
//
// The committed BENCH_scale.json at the repo root is the output of
//   bench_scale > BENCH_scale.json
// Wall-clock columns (wall_time_ms, updates_per_sec, ns_per_update,
// sync_cycle_p*_ns, telemetry_ns, telemetry_e2e_overhead_pct) vary with the
// machine; CI gates them loosely via tools/bench_drift_check
// --columns=ns_per_update,sync_cycle_p99_ns --tolerance=3.0. Everything else
// (messages, bytes, syncs, trace counters) is seed-deterministic.
//
// Flags:
//   --sites=a,b,c     site counts to sweep            [24,128,512,2048]
//   --cycles=N        update cycles per row (0 = auto: fewer cycles at
//                     larger N so the sweep stays minutes-bounded)   [0]
//   --trace-sample=R  head-based trace sampling rate  [0.1]
//   --loopback        additionally run each site count ≤ --loopback-max
//                     through the real-socket loopback runtime (one
//                     CoordinatorServer + N SiteClient threads); rows get
//                     "mode": "loopback" and their own seed stream
//   --loopback-max=N  largest loopback deployment: every site is a
//                     SiteClient thread of this process (the coordinator
//                     runs on the main thread), which makes thousands of
//                     sites meaningless on one box                  [128]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "data/jester_like.h"
#include "functions/linf_distance.h"
#include "obs/telemetry.h"
#include "runtime/coordinator_server.h"
#include "runtime/driver.h"
#include "runtime/site_client.h"

namespace {

using Clock = std::chrono::steady_clock;

/// Bump when per-row columns are added or renamed.
constexpr long kSchemaVersion = 2;
/// Runs per telemetry mode and row (odd, so the median is one run).
constexpr int kRepeats = 5;
constexpr std::size_t kNumBuckets = 8;
constexpr std::size_t kWindow = 50;
constexpr double kThreshold = 5.0;
/// Row seeds derive from the site count so every row is its own
/// bench_drift_check cell (cells are keyed seed × drop).
constexpr std::uint64_t kSimSeedBase = 9000;
constexpr std::uint64_t kLoopbackSeedBase = 9100;

/// Larger deployments run fewer cycles: per-cycle work grows ~linearly in
/// N, so this keeps every row seconds-bounded without silently shrinking
/// the biggest ones to nothing.
long CyclesFor(int sites) {
  if (sites <= 32) return 240;
  if (sites <= 1024) return 120;
  return 40;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

struct RowResult {
  bool ok = false;
  long cycles = 0;
  double wall_ms = 0.0;
  std::vector<double> cycle_ns;  ///< per-sync-cycle wall latency
  long paper_messages = 0;
  double paper_bytes = 0.0;
  long transport_messages = 0;
  double transport_bytes = 0.0;
  long full_syncs = 0;
  long partial_resolutions = 0;
  sgm::TraceLog::SelfCost trace_cost;
  double e2e_overhead_pct = 0.0;  ///< set by MeasureRow
};

sgm::RuntimeConfig NodeConfig(std::uint64_t seed, double trace_sample,
                              const sgm::JesterLikeGenerator& source,
                              sgm::Telemetry* telemetry) {
  sgm::RuntimeConfig node;
  node.threshold = kThreshold;
  node.max_step_norm = source.max_step_norm();
  node.drift_norm_cap = source.max_drift_norm();
  node.seed = sgm::DeriveSeed(seed, 202);
  node.telemetry = telemetry;
  node.trace_sample_rate = trace_sample;
  return node;
}

sgm::JesterLikeConfig WorkloadConfig(int sites, std::uint64_t seed) {
  sgm::JesterLikeConfig workload;
  workload.num_sites = sites;
  workload.window = kWindow;
  workload.num_buckets = kNumBuckets;
  workload.seed = sgm::DeriveSeed(seed, 101);
  return workload;
}

/// One single-process sweep row: the RuntimeDriver over the faultless
/// simulated transport, which isolates protocol + telemetry cost from
/// kernel socket cost. `attach` selects whether telemetry is attached.
RowResult RunSimRow(int sites, long cycles, std::uint64_t seed,
                    double trace_sample, bool attach) {
  RowResult row;
  row.cycles = cycles;
  sgm::JesterLikeGenerator source(WorkloadConfig(sites, seed));
  const sgm::LInfDistance function{sgm::Vector(kNumBuckets)};
  sgm::Telemetry telemetry;
  const sgm::RuntimeConfig node =
      NodeConfig(seed, trace_sample, source, attach ? &telemetry : nullptr);
  sgm::SimTransportConfig transport;
  transport.seed = sgm::DeriveSeed(seed, 303);
  sgm::RuntimeDriver driver(sites, function, node, transport);

  const auto start = Clock::now();
  std::vector<sgm::Vector> locals;
  source.Advance(&locals);
  driver.Initialize(locals);
  row.cycle_ns.reserve(static_cast<std::size_t>(cycles));
  for (long t = 1; t <= cycles; ++t) {
    source.Advance(&locals);
    const auto cycle_start = Clock::now();
    driver.Tick(locals);
    row.cycle_ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - cycle_start)
            .count());
  }
  row.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                          start)
                    .count();

  const sgm::SimTransport& wire = *driver.sim_transport();
  row.paper_messages = wire.messages_sent();
  row.paper_bytes = wire.bytes_sent();
  row.transport_messages = wire.transport_messages_sent();
  row.transport_bytes = wire.transport_bytes_sent();
  row.full_syncs = driver.coordinator().full_syncs();
  row.partial_resolutions = driver.coordinator().partial_resolutions();
  row.trace_cost = telemetry.trace.self_cost();
  row.ok = true;
  return row;
}

/// One loopback row: a real-socket deployment (CoordinatorServer on this
/// thread + one SiteClient thread per site), measuring the same columns
/// through the kernel. The site threads bound the useful N — the caller
/// caps it.
RowResult RunLoopbackRow(int sites, long cycles, std::uint64_t seed,
                         double trace_sample, bool attach) {
  RowResult row;
  row.cycles = cycles;
  const sgm::JesterLikeConfig workload = WorkloadConfig(sites, seed);
  sgm::JesterLikeGenerator probe(workload);
  const sgm::LInfDistance function{sgm::Vector(kNumBuckets)};
  sgm::Telemetry telemetry;

  sgm::CoordinatorServerConfig server_config;
  server_config.num_sites = sites;
  server_config.runtime =
      NodeConfig(seed, trace_sample, probe, attach ? &telemetry : nullptr);
  sgm::CoordinatorServer server(function, server_config);
  if (!server.Listen()) return row;

  std::atomic<bool> sites_ok{true};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(sites));
  const int port = server.port();
  for (int id = 0; id < sites; ++id) {
    threads.emplace_back([&, id] {
      sgm::SiteClientConfig config;
      config.site_id = id;
      config.num_sites = sites;
      config.port = port;
      config.runtime = NodeConfig(seed, trace_sample, probe, nullptr);
      sgm::JesterLikeGenerator generator(workload);
      sgm::SiteClient client(function, config);
      if (!client.Connect()) {
        sites_ok.store(false);
        return;
      }
      std::vector<sgm::Vector> locals;
      long advanced = 0;
      if (!client.Run([&](long cycle) {
            while (advanced <= cycle) {
              generator.Advance(&locals);
              ++advanced;
            }
            return locals[static_cast<std::size_t>(id)];
          })) {
        sites_ok.store(false);
      }
    });
  }

  const auto start = Clock::now();
  bool ok = server.WaitForSites();
  row.cycle_ns.reserve(static_cast<std::size_t>(cycles));
  for (long cycle = 0; ok && cycle <= cycles; ++cycle) {
    const auto cycle_start = Clock::now();
    ok = server.RunCycle();
    row.cycle_ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - cycle_start)
            .count());
  }
  server.Shutdown();
  for (std::thread& t : threads) t.join();
  row.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                          start)
                    .count();

  row.ok = ok && sites_ok.load();
  row.paper_messages = server.PaperMessages();
  row.paper_bytes = server.PaperBytes();
  row.transport_messages = server.transport().transport_messages_sent();
  row.transport_bytes = server.transport().transport_bytes_sent();
  row.full_syncs = server.FullSyncs();
  row.partial_resolutions = server.PartialResolutions();
  row.trace_cost = telemetry.trace.self_cost();
  return row;
}

/// Runs `run(attach)` kRepeats times with telemetry attached and kRepeats
/// times detached, alternating which mode goes first, and returns the
/// attached run with the median wall time, carrying the end-to-end
/// telemetry overhead of the two modes' median wall times.
template <typename Run>
RowResult MeasureRow(Run run) {
  std::vector<RowResult> attached;
  std::vector<double> detached_ms;
  bool ok = true;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (int k = 0; k < 2; ++k) {
      const bool attach = (rep + k) % 2 == 0;
      RowResult result = run(attach);
      ok = ok && result.ok;
      if (attach) {
        attached.push_back(std::move(result));
      } else {
        detached_ms.push_back(result.wall_ms);
      }
    }
  }
  std::sort(attached.begin(), attached.end(),
            [](const RowResult& a, const RowResult& b) {
              return a.wall_ms < b.wall_ms;
            });
  RowResult row = std::move(attached[kRepeats / 2]);
  const double detached = Percentile(detached_ms, 0.5);
  row.ok = ok;
  row.e2e_overhead_pct =
      detached > 0.0 ? 100.0 * (row.wall_ms / detached - 1.0) : 0.0;
  return row;
}

void PrintRow(const char* mode, int sites, std::uint64_t seed,
              double trace_sample, const RowResult& row, bool first) {
  const long updates = static_cast<long>(sites) * row.cycles;
  const double wall_ns = row.wall_ms * 1e6;
  const double updates_per_sec =
      row.wall_ms > 0.0 ? 1000.0 * static_cast<double>(updates) / row.wall_ms
                        : 0.0;
  const double ns_per_update =
      updates > 0 ? wall_ns / static_cast<double>(updates) : 0.0;
  const double telemetry_ns =
      static_cast<double>(row.trace_cost.telemetry_ns);
  std::printf(
      "%s  {\"seed\": %llu, \"drop\": 0.00, \"mode\": \"%s\","
      " \"sites\": %d, \"cycles\": %ld, \"trace_sample\": %.2f,\n"
      "   \"updates\": %ld, \"wall_time_ms\": %.1f,"
      " \"updates_per_sec\": %.0f, \"ns_per_update\": %.0f,\n"
      "   \"sync_cycle_p50_ns\": %.0f, \"sync_cycle_p95_ns\": %.0f,"
      " \"sync_cycle_p99_ns\": %.0f,\n"
      "   \"paper_messages\": %ld, \"paper_bytes\": %.0f,"
      " \"transport_messages\": %ld, \"transport_bytes\": %.0f,"
      " \"overhead_message_ratio\": %.4f,\n"
      "   \"full_syncs\": %ld, \"partial_resolutions\": %ld,\n"
      "   \"trace_events\": %ld, \"trace_recorded\": %ld,"
      " \"trace_sampled_out\": %ld, \"telemetry_ns\": %.0f,"
      " \"telemetry_e2e_overhead_pct\": %.1f}",
      first ? "" : ",\n", static_cast<unsigned long long>(seed), mode, sites,
      row.cycles, trace_sample, updates, row.wall_ms, updates_per_sec,
      ns_per_update, Percentile(row.cycle_ns, 0.50),
      Percentile(row.cycle_ns, 0.95), Percentile(row.cycle_ns, 0.99),
      row.paper_messages, row.paper_bytes, row.transport_messages,
      row.transport_bytes,
      row.paper_messages > 0
          ? static_cast<double>(row.transport_messages - row.paper_messages) /
                static_cast<double>(row.paper_messages)
          : 0.0,
      row.full_syncs, row.partial_resolutions, row.trace_cost.events_emitted,
      row.trace_cost.events_recorded, row.trace_cost.events_sampled_out,
      telemetry_ns, row.e2e_overhead_pct);
}

std::vector<int> ParseSitesList(const std::string& list) {
  std::vector<int> sites;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string item =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!item.empty()) sites.push_back(std::atoi(item.c_str()));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return sites;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> sites_list = {24, 128, 512, 2048};
  long cycles_override = 0;
  double trace_sample = 0.1;
  bool loopback = false;
  int loopback_max = 128;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--sites=", 0) == 0) {
      sites_list = ParseSitesList(arg.substr(std::strlen("--sites=")));
      if (sites_list.empty()) {
        std::fprintf(stderr, "--sites= needs a comma-separated list\n");
        return 2;
      }
    } else if (arg.rfind("--cycles=", 0) == 0) {
      cycles_override = std::atol(arg.c_str() + std::strlen("--cycles="));
    } else if (arg.rfind("--trace-sample=", 0) == 0) {
      trace_sample = std::atof(arg.c_str() + std::strlen("--trace-sample="));
    } else if (arg == "--loopback") {
      loopback = true;
    } else if (arg.rfind("--loopback-max=", 0) == 0) {
      loopback_max = std::atoi(arg.c_str() + std::strlen("--loopback-max="));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  std::printf("{\"benchmark\": \"scale\", \"schema_version\": %ld,"
              " \"workload\": \"jester_like/linf\","
              " \"trace_sample\": %.2f,\n \"runs\": [\n",
              kSchemaVersion, trace_sample);
  bool first = true;
  bool all_ok = true;
  for (const int sites : sites_list) {
    if (sites <= 0) continue;
    const long cycles =
        cycles_override > 0 ? cycles_override : CyclesFor(sites);
    const std::uint64_t seed = kSimSeedBase + static_cast<std::uint64_t>(sites);
    const RowResult row = MeasureRow([&](bool attach) {
      return RunSimRow(sites, cycles, seed, trace_sample, attach);
    });
    all_ok = all_ok && row.ok;
    PrintRow("sim", sites, seed, trace_sample, row, first);
    first = false;
  }
  if (loopback) {
    for (const int sites : sites_list) {
      if (sites <= 0) continue;
      if (sites > loopback_max) {
        std::fprintf(stderr,
                     "note: loopback row for %d sites skipped"
                     " (--loopback-max=%d; one thread per site)\n",
                     sites, loopback_max);
        continue;
      }
      const long cycles = cycles_override > 0 ? cycles_override : 60;
      const std::uint64_t seed =
          kLoopbackSeedBase + static_cast<std::uint64_t>(sites);
      const RowResult row = MeasureRow([&](bool attach) {
        return RunLoopbackRow(sites, cycles, seed, trace_sample, attach);
      });
      all_ok = all_ok && row.ok;
      PrintRow("loopback", sites, seed, trace_sample, row, first);
      first = false;
    }
  }
  std::printf("\n]}\n");
  return all_ok ? 0 : 1;
}

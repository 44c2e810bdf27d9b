// perfbench: the repository benchmark. Runs one workload for a time budget
// and prints, as its last stdout line, one JSON object
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1), each as {"value": v, "unit": u}. A human-readable summary
// with every measured figure goes to stderr.
//
//   perfbench --workload fleet-2048 --seed 1 --seconds 10 --trace 0
//             [--smoke] [--spans PATH]
//
// See README.md for the workloads, the metric → layer map and the gates.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"updates_per_s", "1/s"},
      {"cycle_p50_us", "us"},
      {"cycle_p99_us", "us"},
      {"sync_cycle_p50_us", "us"},
      {"paper_msgs_per_cycle", "count"},
      {"transport_msgs_per_cycle", "count"},
      {"transport_bytes_per_cycle", "B"},
      {"belief_accuracy", "ratio"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"site_node.observe_ns", "ns"},
      {"site_node.on_message_ns", "ns"},
      {"site_node.on_message_per_cycle", "count"},
      {"site_node.heartbeats_per_cycle", "count"},
      {"functions.ball_test_ns", "ns"},
      {"functions.ball_tests_per_cycle", "count"},
      {"coordinator_node.begin_cycle_ns", "ns"},
      {"coordinator_node.on_message_ns", "ns"},
      {"coordinator_node.messages_per_cycle", "count"},
      {"coordinator_node.on_quiescent_ns", "ns"},
      {"coordinator_node.full_sync_ns", "ns"},
      {"coordinator_node.probe_sample_size_p50", "count"},
      {"coordinator_node.probe_sample_size_max", "count"},
      {"coordinator_node.sqrt_n", "count"},
      {"estimators.ht_fold_ns", "ns"},
      {"reliable_transport.send_ns", "ns"},
      {"reliable_transport.send_per_cycle", "count"},
      {"reliable_transport.on_deliver_ns", "ns"},
      {"reliable_transport.on_deliver_per_cycle", "count"},
      {"reliable_transport.advance_round_ns", "ns"},
      {"reliable_transport.advance_round_per_cycle", "count"},
      {"reliable_transport.acks_per_cycle", "count"},
      {"bus.send_ns", "ns"},
      {"bus.pop_ns", "ns"},
      {"bus.msgs_per_cycle", "count"},
      {"serialization.encode_ns", "ns"},
      {"serialization.decode_ns", "ns"},
      {"serialization.frames_per_cycle", "count"},
      {"coordinator_server.barrier_wait_us_mean", "us"},
      {"coordinator_server.barrier_wait_us_p99", "us"},
      {"socket_transport.frames_per_cycle", "count"},
      {"socket_transport.bytes_per_cycle", "B"},
      {"obs.publish_metrics_ns", "ns"},
      {"obs.telemetry_ns_per_cycle", "ns"},
      {"obs.trace_events_per_cycle", "count"},
      {"obs.trace_bytes_per_cycle", "B"},
      {"gm.monitor_ns", "ns"},
      {"gm.full_sync_ns", "ns"},
      {"trace.unattributed_pct", "%"},
      {"trace.overhead_pct", "%"},
      {"trace.span_cost_ns", "ns"},
  };
  return specs;
}

const char* const kWorkloads[] = {"fleet-2048", "storm-128", "loopback-3",
                                  "paper-jester-500"};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--spans PATH]\n");
  return 2;
}

bool KnownWorkload(const std::string& name) {
  for (const char* w : kWorkloads) {
    if (name == w) return true;
  }
  return false;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--spans" && has_value) {
      options.spans_path = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!KnownWorkload(options.workload) || options.seconds <= 0.0) {
    return Usage();
  }

  // Every segment builds and tears down a deployment; keep freed memory in
  // the process so later segments reuse it instead of page-faulting it back
  // in during their timed cycles.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);

  RunReport report;
  if (options.workload == "loopback-3") {
    report = RunLoopback(options);
  } else if (options.workload == "paper-jester-500") {
    report = RunPaper(options);
  } else {
    report = RunRuntimeSim(options);
  }
  report.metrics["peak_rss_mb"] = PeakRssMb();

  for (const auto& [name, value] : report.metrics) {
    std::fprintf(stderr, "  %-44s %.6g\n", name.c_str(), value);
  }
  for (const std::string& why : report.gate_failures) {
    std::fprintf(stderr, "GATE FAILED: %s\n", why.c_str());
  }

  const std::vector<MetricSpec>& specs =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string json = "{\"correct\": ";
  json += report.gate_failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = report.metrics.find(specs[i].name);
    const double value = it == report.metrics.end() ? 0.0 : it->second;
    char cell[256];
    std::snprintf(cell, sizeof(cell),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
    json += cell;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

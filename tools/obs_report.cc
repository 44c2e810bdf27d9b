// obs_report — renders a per-run accuracy / cost report from the
// observability exports of a single leg (the example sits in a block
// comment, where its line continuation is plain text):
/*
    dst_stress --leg=runtime --seed=7 --drop=0.3 --audit \
               --metrics-out=metrics.json --series-out=series.jsonl
    obs_report --metrics=metrics.json --series=series.jsonl
*/
// Sections:
//   accuracy   auditor verdict counts (TP/FP/FN/TN), out-of-zone
//              disagreements, ε-bound violations, |f(v̂) − f(v)| quantiles
//   cost       paper-comparable vs transport message/byte totals, the
//              reliability-layer overhead behind the difference, sync mix
//   series     windowed view from the time-series JSONL: per-window
//              message rates and error quantiles at a few checkpoints
//
// Either input may be given alone. Exit status: 0 on a readable report,
// 1 when the auditor recorded a bound violation (so CI can gate on it),
// 2 on usage/parse errors.
//
// Live mode (against a daemon started with --http-port, see
// docs/OBSERVABILITY.md):
//
//   obs_report --watch=PORT [--interval-ms=1000] [--iterations=0]
//
// polls /healthz, /metrics and /alerts on the daemon's ops endpoints and
// renders one cost/accuracy/alert table row per poll (0 iterations = until
// the daemon goes away). Exits 0 when the daemon shut down cleanly after
// at least one successful poll, 1 when it was never reachable.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/http_exporter.h"
#include "obs/json.h"

namespace {

bool ParseFlag(const std::string& arg, const char* flag, std::string* out) {
  const std::size_t len = std::strlen(flag);
  if (arg.rfind(flag, 0) != 0) return false;
  *out = arg.substr(len);
  return true;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

double Number(const sgm::JsonValue& root, const char* section,
              const char* key) {
  const sgm::JsonValue* group = root.Find(section);
  if (group == nullptr) return 0.0;
  return group->NumberOr(key, 0.0);
}

long Count(const sgm::JsonValue& root, const char* section, const char* key) {
  return static_cast<long>(Number(root, section, key));
}

/// Prints the accuracy and cost sections from a metric snapshot; returns
/// the number of auditor bound violations (the CI gate).
long ReportMetrics(const sgm::JsonValue& root) {
  const long cycles = Count(root, "counters", "audit.cycles");
  long violations = 0;
  if (cycles > 0) {
    const long tp = Count(root, "counters", "audit.true_positives");
    const long tn = Count(root, "counters", "audit.true_negatives");
    const long fp = Count(root, "counters", "audit.false_positives");
    const long fn = Count(root, "counters", "audit.false_negatives");
    const long oz = Count(root, "counters", "audit.out_of_zone_disagreements");
    violations = Count(root, "counters", "audit.bound_violations");
    std::printf("accuracy (%ld audited cycles)\n", cycles);
    std::printf("  verdicts        TP=%ld FP=%ld FN=%ld TN=%ld\n", tp, fp, fn,
                tn);
    std::printf("  disagreements   %ld (%ld out-of-zone)\n", fp + fn, oz);
    std::printf("  bound check     %s (%ld violation(s))\n",
                violations == 0 ? "OK" : "VIOLATED", violations);
    std::printf("  max |f(est)-f(truth)|  %.6g\n",
                Number(root, "gauges", "audit.max_abs_error"));
    if (const sgm::JsonValue* histograms = root.Find("histograms")) {
      if (const sgm::JsonValue* error = histograms->Find("audit.abs_error")) {
        std::printf("  |error| quantiles      p50=%.6g p95=%.6g p99=%.6g\n",
                    error->NumberOr("p50", 0.0), error->NumberOr("p95", 0.0),
                    error->NumberOr("p99", 0.0));
      }
    }
  } else {
    std::printf("accuracy: no audit counters (run dst_stress with --audit)\n");
  }

  const long paper_messages = Count(root, "counters",
                                    "transport.paper_messages");
  const long total_messages = Count(root, "counters",
                                    "transport.total_messages");
  const double paper_bytes = Number(root, "gauges", "transport.paper_bytes");
  const double total_bytes = Number(root, "gauges", "transport.total_bytes");
  std::printf("cost\n");
  std::printf("  paper-comparable  %ld msgs, %.0f bytes\n", paper_messages,
              paper_bytes);
  std::printf("  transport totals  %ld msgs, %.0f bytes", total_messages,
              total_bytes);
  if (paper_messages > 0) {
    std::printf("  (%.2fx message overhead)",
                static_cast<double>(total_messages) /
                    static_cast<double>(paper_messages));
  }
  std::printf("\n");
  std::printf("  reliability       %ld retransmits, %ld acks, %ld dups"
              " suppressed, %ld give-ups\n",
              Count(root, "counters", "transport.retransmissions"),
              Count(root, "counters", "transport.acks_sent"),
              Count(root, "counters", "transport.duplicates_suppressed"),
              Count(root, "counters", "transport.give_ups"));
  std::printf("  sync mix          %ld full, %ld partial, %ld degraded,"
              " %ld rejoins\n",
              Count(root, "counters", "coordinator.full_syncs"),
              Count(root, "counters", "coordinator.partial_resolutions"),
              Count(root, "counters", "coordinator.degraded_syncs"),
              Count(root, "counters", "coordinator.rejoins_granted"));
  return violations;
}

/// Prints windowed checkpoints from the series JSONL: first, quartile
/// points and last sample, with the window message rate and error
/// quantiles at each.
bool ReportSeries(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::vector<sgm::JsonValue> samples;
  std::string line;
  long line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    auto parsed = sgm::JsonValue::Parse(line);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s:%ld: not JSON: %s\n", path.c_str(), line_number,
                   parsed.status().message().c_str());
      return false;
    }
    samples.push_back(parsed.ValueOrDie());
  }
  if (samples.empty()) {
    std::printf("series: %s is empty\n", path.c_str());
    return true;
  }

  std::printf("series (%zu samples from %s)\n", samples.size(), path.c_str());
  std::printf("  %8s %12s %12s %12s %12s\n", "cycle", "win msgs", "err p50",
              "err p95", "err p99");
  const std::size_t last = samples.size() - 1;
  std::size_t previous = static_cast<std::size_t>(-1);
  for (int quarter = 0; quarter <= 4; ++quarter) {
    const std::size_t index = quarter == 4 ? last : last * quarter / 4;
    if (index == previous) continue;
    previous = index;
    const sgm::JsonValue& sample = samples[index];
    const long cycle = static_cast<long>(sample.NumberOr("cycle", 0));
    double window_messages = 0.0;
    if (const sgm::JsonValue* window = sample.Find("window_counts")) {
      window_messages = window->NumberOr("transport.total_messages", 0.0);
    }
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    if (const sgm::JsonValue* gauges = sample.Find("window_gauges")) {
      if (const sgm::JsonValue* error = gauges->Find("audit.abs_error_last")) {
        p50 = error->NumberOr("p50", 0.0);
        p95 = error->NumberOr("p95", 0.0);
        p99 = error->NumberOr("p99", 0.0);
      }
    }
    std::printf("  %8ld %12.0f %12.6g %12.6g %12.6g\n", cycle,
                window_messages, p50, p95, p99);
  }
  return true;
}

/// Pulls one un-labelled sample value out of a Prometheus text exposition
/// ("sgm_transport_paper_messages_total 1234" → 1234). Returns 0 when the
/// family is absent — the render below treats every column as best-effort.
double PromValue(const std::string& exposition, const std::string& family) {
  std::istringstream in(exposition);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(family + " ", 0) == 0) {
      return std::atof(line.c_str() + family.size() + 1);
    }
  }
  return 0.0;
}

/// --watch: polls the live ops endpoints and renders one table row per
/// poll. The daemon disappearing after a successful poll is the normal end
/// of a finite run, not an error.
int RunWatch(int port, long interval_ms, long iterations) {
  std::printf("watching 127.0.0.1:%d every %ldms\n", port, interval_ms);
  std::printf("  %8s %6s %6s %10s %8s %8s %6s %6s\n", "cycle", "epoch",
              "conn", "papermsgs", "fullsync", "disconn", "fn", "alerts");
  long polls_ok = 0;
  for (long i = 0; iterations == 0 || i < iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    std::string health_body;
    if (!sgm::HttpGet(port, "/healthz", &health_body).ok()) {
      if (polls_ok > 0) {
        std::printf("daemon gone after %ld polls\n", polls_ok);
        return 0;
      }
      std::fprintf(stderr, "cannot reach 127.0.0.1:%d/healthz\n", port);
      return 1;
    }
    auto health = sgm::JsonValue::Parse(health_body);
    if (!health.ok()) {
      std::fprintf(stderr, "/healthz: not JSON\n");
      return 1;
    }
    // Best-effort: a daemon racing its own shutdown may drop these; the
    // row then renders zeros for the affected columns.
    std::string metrics_body;
    std::string alerts_body;
    (void)sgm::HttpGet(port, "/metrics", &metrics_body);
    (void)sgm::HttpGet(port, "/alerts", &alerts_body);
    long alerts = 0;
    if (auto parsed = sgm::JsonValue::Parse(alerts_body); parsed.ok()) {
      const sgm::JsonValue& value = parsed.ValueOrDie();
      if (value.is_array()) alerts = static_cast<long>(value.array().size());
    }
    const sgm::JsonValue& h = health.ValueOrDie();
    std::printf("  %8ld %6ld %4.0f/%-1.0f %10.0f %8.0f %8.0f %6.0f %6ld\n",
                static_cast<long>(h.NumberOr("cycle", 0)),
                static_cast<long>(h.NumberOr("epoch", 0)),
                h.NumberOr("connected_sites", 0),
                h.NumberOr("num_sites", 0),
                PromValue(metrics_body, "sgm_transport_paper_messages_total"),
                PromValue(metrics_body, "sgm_coordinator_full_syncs_total"),
                PromValue(metrics_body,
                          "sgm_socket_site_disconnects_total"),
                PromValue(metrics_body, "sgm_audit_false_negatives_total"),
                alerts);
    std::fflush(stdout);
    ++polls_ok;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path;
  std::string series_path;
  int watch_port = -1;
  long interval_ms = 1000;
  long iterations = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "--metrics=", &metrics_path)) {
    } else if (ParseFlag(arg, "--series=", &series_path)) {
    } else if (ParseFlag(arg, "--watch=", &value)) {
      watch_port = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--interval-ms=", &value)) {
      interval_ms = std::atol(value.c_str());
    } else if (ParseFlag(arg, "--iterations=", &value)) {
      iterations = std::atol(value.c_str());
    } else {
      std::fprintf(stderr,
                   "usage: obs_report [--metrics=metrics.json]"
                   " [--series=series.jsonl] | --watch=PORT"
                   " [--interval-ms=MS] [--iterations=N]\n");
      return 2;
    }
  }
  if (watch_port >= 0) return RunWatch(watch_port, interval_ms, iterations);
  if (metrics_path.empty() && series_path.empty()) {
    std::fprintf(stderr,
                 "usage: obs_report [--metrics=metrics.json]"
                 " [--series=series.jsonl] | --watch=PORT"
                 " [--interval-ms=MS] [--iterations=N]\n");
    return 2;
  }

  long violations = 0;
  if (!metrics_path.empty()) {
    std::string text;
    if (!ReadFile(metrics_path, &text)) {
      std::fprintf(stderr, "cannot open %s\n", metrics_path.c_str());
      return 2;
    }
    auto parsed = sgm::JsonValue::Parse(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: not JSON: %s\n", metrics_path.c_str(),
                   parsed.status().message().c_str());
      return 2;
    }
    violations = ReportMetrics(parsed.ValueOrDie());
  }
  if (!series_path.empty()) {
    if (!ReportSeries(series_path)) return 2;
  }
  return violations == 0 ? 0 : 1;
}

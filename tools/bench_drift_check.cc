// Compares a freshly generated BENCH_reliability.json against the committed
// baseline and fails (exit 1) when any paper-comparable cost column
// regresses by more than the tolerance — the CI guard that keeps the
// runtime's protocol traffic anchored to the paper's cost model.
//
//   bench_drift_check BASELINE CURRENT [--tolerance=0.10]
//                     [--columns=a,b,c]
//
// Checked columns (per cell, matched on seed × drop): paper_messages,
// paper_bytes, full_syncs, partial_resolutions. A *regression* is an
// increase beyond baseline × (1 + tolerance); columns with a baseline of 0
// fail on any nonzero current value. Decreases are reported as info but
// pass — cheaper is fine, the baseline should then be refreshed.
//
// `--columns=` replaces the default column set — the same binary then
// gates other benchmark files (e.g. BENCH_chaos.json's
// reconnect_ms_p50,reconnect_ms_p99 with a wall-clock-sized tolerance).
// With `--tolerance=0`, running it twice with the files swapped is an
// equality gate: CI pins the reliability layer's transport columns
// (transport_messages, transport_bytes, retransmissions, acks,
// duplicates_suppressed, give_ups, rejoins_granted) that way, since they
// are deterministic per seed and must only move on purpose.
//
// Schema evolution: a column absent from a baseline cell is *warned about
// and skipped*, not failed — an old baseline must not block a PR that adds
// a new benchmark column (refresh the baseline to start gating it). A
// schema_version mismatch between the files is likewise a warning only.
//
// A baseline cell missing from the current file fails (silently dropping
// coverage must be loud): every gate re-runs every committed cell, the
// scale-bench CI job included, which re-runs all four BENCH_scale.json site
// counts.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

const char* const kPaperColumns[] = {"paper_messages", "paper_bytes",
                                     "full_syncs", "partial_resolutions"};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

std::string CellKey(const sgm::JsonValue& run) {
  char key[64];
  std::snprintf(key, sizeof(key), "seed=%ld drop=%.2f",
                static_cast<long>(run.NumberOr("seed", -1)),
                run.NumberOr("drop", -1.0));
  return key;
}

const sgm::JsonValue* FindCell(const std::vector<sgm::JsonValue>& runs,
                               const std::string& key) {
  for (const sgm::JsonValue& run : runs) {
    if (CellKey(run) == key) return &run;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  double tolerance = 0.10;
  std::vector<std::string> columns(std::begin(kPaperColumns),
                                   std::end(kPaperColumns));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--tolerance=", 0) == 0) {
      tolerance = std::atof(arg.c_str() + std::strlen("--tolerance="));
    } else if (arg.rfind("--columns=", 0) == 0) {
      columns.clear();
      std::string list = arg.substr(std::strlen("--columns="));
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string column =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!column.empty()) columns.push_back(column);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      if (columns.empty()) {
        std::fprintf(stderr, "--columns= needs at least one column\n");
        return 2;
      }
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (current_path.empty()) {
      current_path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (current_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_drift_check BASELINE CURRENT"
                 " [--tolerance=0.10] [--columns=a,b,c]\n");
    return 2;
  }

  std::string baseline_text;
  std::string current_text;
  if (!ReadFile(baseline_path, &baseline_text)) {
    std::fprintf(stderr, "cannot read %s\n", baseline_path.c_str());
    return 1;
  }
  if (!ReadFile(current_path, &current_text)) {
    std::fprintf(stderr, "cannot read %s\n", current_path.c_str());
    return 1;
  }

  auto baseline = sgm::JsonValue::Parse(baseline_text);
  auto current = sgm::JsonValue::Parse(current_text);
  if (!baseline.ok() || !current.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 (!baseline.ok() ? baseline : current)
                     .status()
                     .message()
                     .c_str());
    return 1;
  }
  const sgm::JsonValue* baseline_runs = baseline.ValueOrDie().Find("runs");
  const sgm::JsonValue* current_runs = current.ValueOrDie().Find("runs");
  if (baseline_runs == nullptr || !baseline_runs->is_array() ||
      current_runs == nullptr || !current_runs->is_array()) {
    std::fprintf(stderr, "missing \"runs\" array\n");
    return 1;
  }
  const long baseline_schema =
      static_cast<long>(baseline.ValueOrDie().NumberOr("schema_version", 0));
  const long current_schema =
      static_cast<long>(current.ValueOrDie().NumberOr("schema_version", 0));
  if (baseline_schema != current_schema) {
    std::printf("warn  schema_version differs: baseline %ld, current %ld"
                " (columns absent from the baseline are skipped)\n",
                baseline_schema, current_schema);
  }

  int failures = 0;
  long cells_checked = 0;
  for (const sgm::JsonValue& base_cell : baseline_runs->array()) {
    const std::string key = CellKey(base_cell);
    const sgm::JsonValue* cur_cell = FindCell(current_runs->array(), key);
    if (cur_cell == nullptr) {
      std::printf("FAIL  [%s] cell missing from current run\n", key.c_str());
      ++failures;
      continue;
    }
    ++cells_checked;
    for (const std::string& column : columns) {
      if (base_cell.Find(column) == nullptr) {
        // Pre-column baseline: nothing to compare against. Warn so the
        // refresh is visible, but never fail a PR on an old baseline.
        std::printf("warn  [%s] %s absent from baseline — skipped (refresh"
                    " baseline to gate it)\n",
                    key.c_str(), column.c_str());
        continue;
      }
      const double base = base_cell.NumberOr(column, 0.0);
      const double cur = cur_cell->NumberOr(column, 0.0);
      const double limit = base * (1.0 + tolerance);
      if (cur > limit && cur > base) {  // base==0 → any increase fails
        std::printf("FAIL  [%s] %s: %g -> %g (limit %g, +%.1f%%)\n",
                    key.c_str(), column.c_str(), base, cur, limit,
                    base > 0.0 ? 100.0 * (cur - base) / base : 100.0);
        ++failures;
      } else if (cur < base) {
        std::printf("info  [%s] %s improved: %g -> %g (refresh"
                    " baseline)\n",
                    key.c_str(), column.c_str(), base, cur);
      }
    }
  }
  if (current_runs->array().size() != baseline_runs->array().size()) {
    std::printf("note  cell count changed: %zu baseline, %zu current\n",
                baseline_runs->array().size(), current_runs->array().size());
  }

  if (failures > 0) {
    std::printf("drift check FAILED: %d regression(s) over %.0f%% across"
                " %ld cells\n",
                failures, 100.0 * tolerance, cells_checked);
    return 1;
  }
  std::printf("drift check OK: %ld cells within %.0f%% of baseline\n",
              cells_checked, 100.0 * tolerance);
  return 0;
}

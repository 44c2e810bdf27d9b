// dst_stress — deterministic-simulation stress runner and replay tool.
//
// Default mode sweeps the full protocol × function × fault matrix over many
// master seeds; any invariant violation prints the exact single-leg command
// that replays it deterministically (the examples sit in a block comment,
// where their line continuations are plain text):
/*
    dst_stress --seeds=20                 # the CI stress sweep
    dst_stress --leg=runtime --protocol=SGM --function=l2 --seed=77 \
               --drop=0.25 --delay=3     # replay one leg
    dst_stress --leg=sim --protocol=SGM --function=linf --seed=5 \
               --sabotage                # force a violation (tolerance = 0)
*/
// Flags:
//   --seeds      number of master seeds for the sweep mode     [20]
//   --seed       master (sweep) or leg seed (with --leg)       [1]
//   --leg        sim | runtime | parity  (selects replay mode)
//   --protocol   GM | BGM | SGM | CVSGM                        [SGM]
//   --function   l2 | linf                                     [l2]
//   --sites      sites N                                       [24]
//   --cycles     update cycles                                 [300]
//   --drop       per-link drop probability                     [0]
//   --dup        per-link duplication probability              [0]
//   --delay      max delivery delay in rounds                  [0]
//   --crash      per-cycle site-crash probability              [0]
//   --corrupt    per-message wire bit-flip probability; the v4 frame
//                CRC32C turns every flip into a detected drop  [0]
//   --coord-crash[=P]  per-cycle COORDINATOR crash probability; bare flag
//                      selects the CI default 0.04. Applies to runtime legs
//                      (sweep mode) or a --leg=runtime replay; each crash
//                      recovers from the checkpoint store under injected
//                      torn-tail storage faults and is invariant-checked
//   --coord-down=N     max coordinator downtime in cycles      [4]
//   --stall      per-cycle site-stall probability (straggler fault: the
//                site goes silent without losing state, and the cycle's
//                barrier deadline reports it lagging)           [0]
//   --stall-cycles=N   max stall length in cycles               [5]
//   --sabotage   collapse invariant tolerances to zero
//   --audit      run the online accuracy auditor on every sim/runtime leg;
//                a leg then also fails when the auditor sees an ε / ε_C
//                bound violation or an out-of-zone FN rate above δ + 0.01
//   --audit-epsilon=E   auditor zone-ε override (0 = exact agreement —
//                       the deliberate negative-test configuration)
//   --audit-max-run=R   auditor out-of-zone run tolerance override
//   --verbose    print every leg's summary, not just failures
//   --trace-sample=R    head-based trace sampling rate in [0, 1]; 1.0 keeps
//                       the byte-identical full trace, lower rates drop
//                       unsampled cascades/noise from the trace only  [1.0]
//   --trace=PATH        write the structured protocol trace (JSONL; single
//                       leg only — timestamps are logical, so a replayed
//                       seed reproduces the file byte-for-byte)
//   --metrics-out=PATH  write the metric-registry snapshot JSON (single
//                       leg only)
//   --prom-out=PATH     write the metric registry in Prometheus text
//                       exposition format (single leg only)
//   --series-out=PATH   write the per-cycle windowed time-series JSONL
//                       (single leg only; see docs/OBSERVABILITY.md)
//   --alerts-out=PATH   run the online anomaly detector over the per-cycle
//                       metric stream and write the alert JSONL (single
//                       leg only; deterministic — part of the
//                       replay-by-seed contract)
//
// Exit status: 0 when every invariant (and, with --audit, every accuracy
// bound) held, 1 otherwise.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/rng.h"
#include "obs/telemetry.h"
#include "sim/stress.h"

namespace {

struct Flags {
  std::uint64_t seed = 1;
  int seeds = 20;
  std::string leg;
  sgm::StressConfig config;
  bool verbose = false;
  std::string trace_out;
  std::string metrics_out;
  std::string prom_out;
  std::string series_out;
  std::string alerts_out;
};

/// Audit FN-rate gate: δ + 0.01 with the protocols' default δ = 0.1. Only
/// out-of-zone false negatives count — in-zone disagreement is the benign
/// churn the (ε, δ) contract explicitly permits.
constexpr double kFnRateGate = 0.11;

bool AuditFailed(const sgm::StressReport& report) {
  if (!report.config.audit) return false;
  if (report.leg == "parity") return false;  // no oracle on the parity leg
  return report.audit.bound_violations > 0 ||
         report.audit.fn_rate() > kFnRateGate;
}

bool ParseFlag(const char* arg, const char* name, const char** value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

bool ParseArgs(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (ParseFlag(argv[i], "--seed", &value) && value != nullptr) {
      flags->seed = std::strtoull(value, nullptr, 10);
      flags->config.seed = flags->seed;
    } else if (ParseFlag(argv[i], "--seeds", &value) && value != nullptr) {
      flags->seeds = std::atoi(value);
    } else if (ParseFlag(argv[i], "--leg", &value) && value != nullptr) {
      flags->leg = value;
    } else if (ParseFlag(argv[i], "--protocol", &value) && value != nullptr) {
      if (!sgm::ParseStressProtocol(value, &flags->config.protocol)) {
        std::fprintf(stderr, "unknown --protocol=%s\n", value);
        return false;
      }
    } else if (ParseFlag(argv[i], "--function", &value) && value != nullptr) {
      if (!sgm::ParseStressFunction(value, &flags->config.function)) {
        std::fprintf(stderr, "unknown --function=%s\n", value);
        return false;
      }
    } else if (ParseFlag(argv[i], "--sites", &value) && value != nullptr) {
      flags->config.num_sites = std::atoi(value);
    } else if (ParseFlag(argv[i], "--cycles", &value) && value != nullptr) {
      flags->config.cycles = std::atol(value);
    } else if (ParseFlag(argv[i], "--drop", &value) && value != nullptr) {
      flags->config.drop_probability = std::atof(value);
    } else if (ParseFlag(argv[i], "--dup", &value) && value != nullptr) {
      flags->config.duplicate_probability = std::atof(value);
    } else if (ParseFlag(argv[i], "--delay", &value) && value != nullptr) {
      flags->config.max_delay_rounds = std::atoi(value);
    } else if (ParseFlag(argv[i], "--crash", &value) && value != nullptr) {
      flags->config.crash_probability = std::atof(value);
    } else if (ParseFlag(argv[i], "--corrupt", &value) && value != nullptr) {
      flags->config.corrupt_probability = std::atof(value);
    } else if (ParseFlag(argv[i], "--coord-crash", &value)) {
      flags->config.coord_crash_probability =
          value != nullptr ? std::atof(value) : 0.04;
    } else if (ParseFlag(argv[i], "--coord-down", &value) &&
               value != nullptr) {
      flags->config.max_coord_crash_cycles = std::atoi(value);
    } else if (ParseFlag(argv[i], "--stall-cycles", &value) &&
               value != nullptr) {
      flags->config.max_stall_cycles = std::atoi(value);
    } else if (ParseFlag(argv[i], "--stall", &value) && value != nullptr) {
      flags->config.stall_probability = std::atof(value);
    } else if (ParseFlag(argv[i], "--sabotage", &value)) {
      flags->config.sabotage_tolerance = true;
    } else if (ParseFlag(argv[i], "--audit-epsilon", &value) &&
               value != nullptr) {
      flags->config.audit = true;
      flags->config.audit_epsilon = std::atof(value);
    } else if (ParseFlag(argv[i], "--audit-max-run", &value) &&
               value != nullptr) {
      flags->config.audit = true;
      flags->config.audit_max_run = std::atol(value);
    } else if (ParseFlag(argv[i], "--audit", &value)) {
      flags->config.audit = true;
    } else if (ParseFlag(argv[i], "--trace-sample", &value) &&
               value != nullptr) {
      flags->config.trace_sample_rate = std::atof(value);
    } else if (ParseFlag(argv[i], "--verbose", &value)) {
      flags->verbose = true;
    } else if (ParseFlag(argv[i], "--trace", &value) && value != nullptr) {
      flags->trace_out = value;
    } else if (ParseFlag(argv[i], "--metrics-out", &value) &&
               value != nullptr) {
      flags->metrics_out = value;
    } else if (ParseFlag(argv[i], "--prom-out", &value) && value != nullptr) {
      flags->prom_out = value;
    } else if (ParseFlag(argv[i], "--series-out", &value) &&
               value != nullptr) {
      flags->series_out = value;
    } else if (ParseFlag(argv[i], "--alerts-out", &value) &&
               value != nullptr) {
      flags->alerts_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

int Report(const std::vector<sgm::StressReport>& reports, bool verbose) {
  int failures = 0;
  for (const sgm::StressReport& report : reports) {
    const bool audit_failed = AuditFailed(report);
    if (!report.ok() || audit_failed) {
      ++failures;
      std::fputs(report.Summary().c_str(), stdout);
      if (audit_failed) {
        std::printf(
            "AUDIT FAILED (%s): %ld bound violation(s), oz-FN rate %.4f"
            " (gate %.2f), first violation cycle %ld span %lld\n",
            report.leg.c_str(), report.audit.bound_violations,
            report.audit.fn_rate(), kFnRateGate,
            report.audit.first_violation_cycle,
            static_cast<long long>(report.audit.first_violation_span));
      }
    } else if (verbose) {
      std::fputs(report.Summary().c_str(), stdout);
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseArgs(argc, argv, &flags)) return 2;

  // Telemetry attaches to single-leg runs only: the sweep runs many legs
  // whose counters would conflate in one registry, and the parity leg
  // ignores it by design.
  sgm::Telemetry telemetry;
  const bool want_telemetry =
      !flags.trace_out.empty() || !flags.metrics_out.empty() ||
      !flags.prom_out.empty() || !flags.series_out.empty() ||
      !flags.alerts_out.empty();
  if (want_telemetry) {
    if (flags.leg != "sim" && flags.leg != "runtime") {
      std::fprintf(stderr,
                   "--trace/--metrics-out/--prom-out/--series-out/"
                   "--alerts-out require a single leg (--leg=sim|runtime)\n");
      return 2;
    }
    flags.config.telemetry = &telemetry;
    if (!flags.series_out.empty()) telemetry.EnableTimeSeries();
    if (!flags.alerts_out.empty()) {
      // Same seed as the leg: alerts are part of the replay-by-seed
      // contract (two runs of one leg produce byte-identical files).
      sgm::AnomalyDetectorConfig anomaly_config;
      anomaly_config.seed = flags.config.seed;
      telemetry.EnableAnomalyDetection(anomaly_config);
    }
  }

  std::vector<sgm::StressReport> reports;
  if (flags.leg.empty()) {
    // Sweep mode: one full matrix per master seed.
    for (int i = 0; i < flags.seeds; ++i) {
      const std::uint64_t master = sgm::DeriveSeed(flags.seed, i);
      std::printf("== master seed %llu (%d/%d) ==\n",
                  static_cast<unsigned long long>(master), i + 1,
                  flags.seeds);
      const auto suite = sgm::RunStressSuite(
          master, flags.config.audit, flags.config.coord_crash_probability,
          flags.config.max_coord_crash_cycles);
      reports.insert(reports.end(), suite.begin(), suite.end());
    }
  } else if (flags.leg == "sim") {
    reports.push_back(sgm::RunSimStress(flags.config));
  } else if (flags.leg == "runtime") {
    reports.push_back(sgm::RunRuntimeStress(flags.config));
  } else if (flags.leg == "parity") {
    reports.push_back(sgm::RunTransportParity(flags.config));
  } else {
    std::fprintf(stderr, "unknown --leg=%s (sim | runtime | parity)\n",
                 flags.leg.c_str());
    return 2;
  }

  if (!flags.trace_out.empty()) {
    std::ofstream out(flags.trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", flags.trace_out.c_str());
      return 2;
    }
    telemetry.trace.WriteJsonl(out);
    std::printf("wrote %zu trace events to %s\n", telemetry.trace.size(),
                flags.trace_out.c_str());
  }
  if (!flags.metrics_out.empty()) {
    std::ofstream out(flags.metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", flags.metrics_out.c_str());
      return 2;
    }
    telemetry.WriteMetricsJson(out);
  }
  if (!flags.prom_out.empty()) {
    std::ofstream out(flags.prom_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", flags.prom_out.c_str());
      return 2;
    }
    telemetry.WritePrometheus(out);
  }
  if (!flags.series_out.empty()) {
    std::ofstream out(flags.series_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", flags.series_out.c_str());
      return 2;
    }
    telemetry.series->WriteJsonl(out);
    std::printf("wrote %zu series samples to %s\n",
                telemetry.series->size(), flags.series_out.c_str());
  }
  if (!flags.alerts_out.empty()) {
    std::ofstream out(flags.alerts_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", flags.alerts_out.c_str());
      return 2;
    }
    telemetry.anomaly->WriteAlertsJsonl(out);
    std::printf("wrote %zu alerts to %s\n", telemetry.anomaly->alert_count(),
                flags.alerts_out.c_str());
  }

  const int failures = Report(reports, flags.verbose);
  std::printf("%zu legs, %d with violations\n", reports.size(), failures);
  return failures == 0 ? 0 : 1;
}

// sgm_monitor — command-line experiment runner.
//
// Runs any protocol/function/workload combination of the library and prints
// the full metrics block, so ad-hoc comparisons don't require writing code
// (the examples sit in block comments, where their line continuations are
// plain text):
/*
    sgm_monitor --workload=jester --function=linf --protocol=sgm \
                --sites=500 --threshold=10 --cycles=2000 --delta=0.1
    sgm_monitor --workload=csv --csv=trace.csv --function=l2 \
                --protocol=gm --threshold=4
*/
// Flags (all optional unless noted; every number must parse whole and in
// range, or the tool exits 2 before it simulates, listens or dials):
//   --workload   jester | reuters | synthetic | csv      [jester]
//   --csv        path for --workload=csv (cycle,site,x... rows)
//   --function   linf | jd | sj | l2 | chi2 | stdev | entropy  [linf]
//   --protocol   gm | bgm | pgm | sgm | msgm | bernoulli | cvgm | cvsgm [sgm]
//   --sites      number of sites N                        [500]
//   --threshold  T, a finite number (required)
//   --delta      FN tolerance δ, in (0, 1)                [0.1]
//   --cycles     update cycles                            [2000]
//   --seed       workload seed                            [11]
//   --trace      write the structured protocol trace (JSONL)
//   --metrics-out  write the metric-registry snapshot JSON
//
// Daemon modes (the real-process socket runtime; see docs/RUNTIME.md). They
// run SGM and refuse any other --protocol:
/*
    # coordinator service on loopback TCP
    sgm_monitor --listen=7450 --sites=4 --workload=synthetic \
                --function=l2 --threshold=4 --cycles=200 \
                --prom-out=/run/sgm/metrics.prom --series-out=series.jsonl
    # one process per site, same workload/function/threshold flags
    sgm_monitor --site=0 --connect=127.0.0.1:7450 --sites=4 \
                --workload=synthetic --function=l2 --threshold=4
*/
//   --listen     run as coordinator daemon on this port (0 = ephemeral)
//   --site       run as site daemon with this site id
//   --connect    coordinator endpoint for --site ([host:]port; loopback)
//   --prom-out   coordinator: rewrite this Prometheus textfile every cycle
//   --series-out coordinator: per-cycle metric time series (JSONL)
//   --barrier-deadline-ms  coordinator: soft per-cycle barrier deadline; on
//                expiry the cycle closes over the responsive quorum and
//                silent sites accrue deadline misses (consecutive misses
//                quarantine a laggard as kLagging until it catches up; see
//                docs/RUNTIME.md straggler runbook). 0 disables — behavior
//                is then identical to pre-deadline builds          [0]
//   --lagging-misses  coordinator: consecutive deadline misses before a
//                site is quarantined (jittered per site)           [2]
//   --checkpoint-dir  coordinator: durable snapshot+WAL directory
//   --recover    coordinator: restore from --checkpoint-dir before serving
//                (restart-from-checkpoint; see docs/RUNTIME.md runbook);
//                also --recover=1|true, or =0|false to start fresh
//   --connect-attempts / --connect-base-ms / --connect-max-ms
//                site: bounded-retry dial policy with seeded jitter,
//                shared by the first connect and every reconnect
//   --max-reconnects  site: sessions to re-establish after peer loss
//
// Observability plane (both daemon modes; see docs/OBSERVABILITY.md):
//   --http-port  serve live read-only ops endpoints on this loopback port
//                (0 = ephemeral; the bound port is printed on stdout):
//                /metrics (Prometheus 0.0.4), /healthz (JSON), /alerts,
//                /flightrecorder (recent-event ring as JSONL)
//   --trace-sample=R  head-based trace sampling rate in [0, 1]; 1.0 keeps
//                the full byte-identical trace, lower rates drop unsampled
//                cascades/noise from the trace only (counters and the
//                audit/alert planes always see everything)       [1.0]
//   --flight-dump=PATH  where the fatal-signal (SIGSEGV/SIGABRT) handler
//                dumps the in-memory flight-recorder ring as JSONL
//                [sgm-flight-<role>.jsonl]
//   --alerts-out coordinator: run the online anomaly detector over the
//                per-cycle metric stream and append alert.* events to this
//                JSONL file (append + flush per alert, so the file
//                survives a SIGKILL mid-run)
//   --trace / --metrics-out work in both daemon modes; each process writes
//                its own per-process trace stamped with proc="coordinator"
//                or proc="site-<id>" plus the coordinator-issued trace
//                epoch, ready for `trace_inspect --merge`.
//
// Both daemon roles shut down gracefully on SIGTERM/SIGINT: the
// coordinator finishes the in-flight cycle, flushes a final checkpoint
// (when --checkpoint-dir is set), broadcasts kShutdown to every site and
// exits 0; a site daemon drains its session loop and exits 0 as if a
// kShutdown frame had arrived.
//
// Site daemons exit 0 only on a clean kShutdown; each failure mode has a
// distinct code (and a structured stderr line):
//   3 coordinator EOF   4 connect give-up   5 recv error
//   6 stream poisoned   7 send failed       8 poll error
//
// Every deployment-shape flag (--workload, --function, --sites,
// --threshold, --delta, --seed) must be identical across the coordinator
// and all site processes: sites regenerate their deterministic streams
// locally, only protocol messages cross the wire.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "obs/anomaly.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/http_exporter.h"
#include "obs/telemetry.h"

#include "data/csv_stream.h"
#include "data/jester_like.h"
#include "data/reuters_like.h"
#include "data/synthetic.h"
#include "functions/chi_square.h"
#include "functions/entropy.h"
#include "functions/jeffrey_divergence.h"
#include "functions/l2_norm.h"
#include "functions/linf_distance.h"
#include "functions/variance.h"
#include "gm/bernoulli_gm.h"
#include "gm/bgm.h"
#include "gm/cvgm.h"
#include "gm/cvsgm.h"
#include "gm/gm.h"
#include "gm/pgm.h"
#include "gm/sgm.h"
#include "runtime/checkpoint.h"
#include "runtime/coordinator_server.h"
#include "runtime/site_client.h"
#include "sim/network.h"

namespace sgm {
namespace {

/// Largest TCP port, the bound of --listen and --http-port.
constexpr unsigned long long kMaxPort = 65535;

struct Flags {
  std::string workload = "jester";
  std::string csv;
  std::string function = "linf";
  std::string protocol = "sgm";
  int sites = 500;
  double threshold = 0.0;
  bool threshold_set = false;
  double delta = 0.1;
  long cycles = 2000;
  std::uint64_t seed = 11;
  std::string trace_out;
  std::string metrics_out;
  // Daemon modes (socket runtime).
  int listen_port = -1;  ///< ≥ 0: run as coordinator daemon (0 = ephemeral)
  int site_id = -1;      ///< ≥ 0: run as site daemon
  std::string connect;   ///< [host:]port of the coordinator for --site
  std::string prom_out;
  std::string series_out;
  /// Coordinator straggler policy (see docs/RUNTIME.md): soft barrier
  /// deadline per cycle (0 = disabled) and quarantine threshold in
  /// consecutive misses.
  long barrier_deadline_ms = 0;
  int lagging_misses = 2;
  std::string checkpoint_dir;  ///< coordinator durability directory
  bool recover = false;        ///< restore from checkpoint_dir on start
  SocketRetryConfig socket_retry;  ///< site dial policy (first + re-connect)
  int max_reconnects = 8;
  int http_port = -1;      ///< ≥ 0: serve /metrics /healthz /alerts
  std::string alerts_out;  ///< coordinator: anomaly alert JSONL sink
  /// Head-based trace sampling rate (RuntimeConfig::trace_sample_rate).
  double trace_sample = 1.0;
  /// Fatal-signal flight-recorder dump path; empty derives a role-named
  /// default (sgm-flight-<role>.jsonl in the working directory).
  std::string flight_dump;
};

// Parses all of `text` as a finite double. std::atof would read "4x" as 4
// and "nan" as a threshold no value ever crosses.
bool ParseFinite(const std::string& text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

// Parses all of `value` as a decimal integer in [min, max] into *out, or
// says why --`key` is refused. std::atoi would read "4x" as 4 and "abc" as 0,
// and std::strtoull would wrap "-1" to 2^64 - 1. No integer flag is signed.
template <typename T>
bool ParseInteger(const std::string& key, const std::string& value,
                  unsigned long long min, T* out,
                  unsigned long long max = std::numeric_limits<T>::max()) {
  unsigned long long parsed = 0;
  bool ok = !value.empty() && value.find_first_not_of("0123456789") ==
                                  std::string::npos;
  if (ok) {
    errno = 0;
    parsed = std::strtoull(value.c_str(), nullptr, 10);
    ok = errno != ERANGE && parsed >= min && parsed <= max;
  }
  if (!ok) {
    std::fprintf(stderr, "invalid --%s=%s: not an integer in [%llu, %llu]\n",
                 key.c_str(), value.c_str(), min, max);
    return false;
  }
  *out = static_cast<T>(parsed);
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
      return false;
    }
    if (eq == std::string::npos) {
      // The only valueless flag; everything else is --key=value.
      if (arg == "--recover") {
        flags->recover = true;
        continue;
      }
      std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      flags->workload = value;
    } else if (key == "csv") {
      flags->csv = value;
    } else if (key == "function") {
      flags->function = value;
    } else if (key == "protocol") {
      flags->protocol = value;
    } else if (key == "sites") {
      if (!ParseInteger(key, value, 1, &flags->sites)) return false;
    } else if (key == "threshold") {
      if (!ParseFinite(value, &flags->threshold)) {
        std::fprintf(stderr, "invalid --threshold=%s: not a finite number\n",
                     value.c_str());
        return false;
      }
      flags->threshold_set = true;
    } else if (key == "delta") {
      // SGM samples with probabilities that need δ strictly inside (0, 1).
      if (!ParseFinite(value, &flags->delta) || flags->delta <= 0.0 ||
          flags->delta >= 1.0) {
        std::fprintf(stderr, "invalid --delta=%s: not a number in (0, 1)\n",
                     value.c_str());
        return false;
      }
    } else if (key == "cycles") {
      if (!ParseInteger(key, value, 0, &flags->cycles)) return false;
    } else if (key == "seed") {
      if (!ParseInteger(key, value, 0, &flags->seed)) return false;
    } else if (key == "trace") {
      flags->trace_out = value;
    } else if (key == "metrics-out") {
      flags->metrics_out = value;
    } else if (key == "listen") {
      if (!ParseInteger(key, value, 0, &flags->listen_port, kMaxPort)) {
        return false;
      }
    } else if (key == "site") {
      if (!ParseInteger(key, value, 0, &flags->site_id)) return false;
    } else if (key == "connect") {
      flags->connect = value;
    } else if (key == "prom-out") {
      flags->prom_out = value;
    } else if (key == "series-out") {
      flags->series_out = value;
    } else if (key == "barrier-deadline-ms") {
      if (!ParseInteger(key, value, 0, &flags->barrier_deadline_ms)) {
        return false;
      }
    } else if (key == "lagging-misses") {
      if (!ParseInteger(key, value, 1, &flags->lagging_misses)) return false;
    } else if (key == "checkpoint-dir") {
      flags->checkpoint_dir = value;
    } else if (key == "recover") {
      if (value == "1" || value == "true") {
        flags->recover = true;
      } else if (value == "0" || value == "false") {
        flags->recover = false;
      } else {
        std::fprintf(stderr,
                     "invalid --recover=%s: not one of 1, true, 0, false\n",
                     value.c_str());
        return false;
      }
    } else if (key == "connect-attempts") {
      if (!ParseInteger(key, value, 1, &flags->socket_retry.max_attempts)) {
        return false;
      }
    } else if (key == "connect-base-ms") {
      if (!ParseInteger(key, value, 0, &flags->socket_retry.base_backoff_ms)) {
        return false;
      }
    } else if (key == "connect-max-ms") {
      if (!ParseInteger(key, value, 0, &flags->socket_retry.max_backoff_ms)) {
        return false;
      }
    } else if (key == "max-reconnects") {
      if (!ParseInteger(key, value, 0, &flags->max_reconnects)) return false;
    } else if (key == "http-port") {
      if (!ParseInteger(key, value, 0, &flags->http_port, kMaxPort)) {
        return false;
      }
    } else if (key == "alerts-out") {
      flags->alerts_out = value;
    } else if (key == "trace-sample") {
      if (!ParseFinite(value, &flags->trace_sample) ||
          flags->trace_sample < 0.0 || flags->trace_sample > 1.0) {
        std::fprintf(stderr,
                     "invalid --trace-sample=%s: not a number in [0, 1]\n",
                     value.c_str());
        return false;
      }
    } else if (key == "flight-dump") {
      flags->flight_dump = value;
    } else {
      std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      return false;
    }
  }
  if (!flags->threshold_set) {
    std::fprintf(stderr, "--threshold is required\n");
    return false;
  }
  // The socket runtime runs SGM alone; any other protocol would be ignored.
  if ((flags->listen_port >= 0 || flags->site_id >= 0) &&
      flags->protocol != "sgm") {
    std::fprintf(stderr,
                 "invalid --protocol=%s: the daemon modes run sgm only\n",
                 flags->protocol.c_str());
    return false;
  }
  return true;
}

std::unique_ptr<StreamSource> MakeWorkload(const Flags& flags) {
  if (flags.workload == "jester") {
    JesterLikeConfig config;
    config.num_sites = flags.sites;
    config.seed = flags.seed;
    return std::make_unique<JesterLikeGenerator>(config);
  }
  if (flags.workload == "reuters") {
    ReutersLikeConfig config;
    config.num_sites = flags.sites;
    config.seed = flags.seed;
    return std::make_unique<ReutersLikeGenerator>(config);
  }
  if (flags.workload == "synthetic") {
    SyntheticDriftConfig config;
    config.num_sites = flags.sites;
    config.seed = flags.seed;
    return std::make_unique<SyntheticDriftGenerator>(config);
  }
  if (flags.workload == "csv") {
    auto result = CsvVectorStream::Load(flags.csv);
    if (!result.ok()) {
      std::fprintf(stderr, "CSV load failed: %s\n",
                   result.status().ToString().c_str());
      return nullptr;
    }
    return std::make_unique<CsvVectorStream>(std::move(result).ValueOrDie());
  }
  std::fprintf(stderr, "unknown workload: %s\n", flags.workload.c_str());
  return nullptr;
}

std::unique_ptr<MonitoredFunction> MakeFunction(const Flags& flags,
                                                const StreamSource& source) {
  const std::size_t dim = source.dim();
  if (flags.function == "linf") {
    return std::make_unique<LInfDistance>(Vector(dim));
  }
  if (flags.function == "jd") {
    return std::make_unique<JeffreyDivergence>(Vector(dim));
  }
  if (flags.function == "sj") return L2Norm::SelfJoinSize();
  if (flags.function == "l2") return std::make_unique<L2Norm>();
  if (flags.function == "chi2") {
    if (dim != 3) {
      std::fprintf(stderr, "chi2 needs 3-dimensional vectors (got %zu)\n",
                   dim);
      return nullptr;
    }
    return std::make_unique<ChiSquare>(200.0);
  }
  if (flags.function == "stdev") return CoordinateDispersion::StdDev();
  if (flags.function == "entropy") return std::make_unique<Entropy>();
  std::fprintf(stderr, "unknown function: %s\n", flags.function.c_str());
  return nullptr;
}

std::unique_ptr<ProtocolBase> MakeProtocol(const Flags& flags,
                                           const MonitoredFunction& f,
                                           const StreamSource& source) {
  const double step = source.max_step_norm();
  std::unique_ptr<ProtocolBase> protocol;
  if (flags.protocol == "gm") {
    protocol = std::make_unique<GeometricMonitor>(f, flags.threshold, step);
  } else if (flags.protocol == "bgm") {
    protocol =
        std::make_unique<BalancedGeometricMonitor>(f, flags.threshold, step);
  } else if (flags.protocol == "pgm") {
    protocol =
        std::make_unique<PredictionGeometricMonitor>(f, flags.threshold, step);
  } else if (flags.protocol == "sgm" || flags.protocol == "msgm") {
    SgmOptions options;
    options.delta = flags.delta;
    options.num_trials = flags.protocol == "msgm" ? 0 : 1;
    protocol = std::make_unique<SamplingGeometricMonitor>(f, flags.threshold,
                                                          step, options);
  } else if (flags.protocol == "bernoulli") {
    protocol = MakeBernoulliMonitor(f, flags.threshold, step, flags.delta);
  } else if (flags.protocol == "cvgm") {
    protocol =
        std::make_unique<ConvexSafeZoneMonitor>(f, flags.threshold, step);
  } else if (flags.protocol == "cvsgm") {
    CvsgmOptions options;
    options.delta = flags.delta;
    protocol = std::make_unique<CvSamplingMonitor>(f, flags.threshold, step,
                                                   options);
  } else {
    std::fprintf(stderr, "unknown protocol: %s\n", flags.protocol.c_str());
    return nullptr;
  }
  protocol->set_drift_norm_cap(source.max_drift_norm());
  return protocol;
}

// ── Socket-runtime daemon modes ──────────────────────────────────────────

/// SIGTERM/SIGINT → graceful shutdown. The handler is async-signal-safe:
/// it flips a sig_atomic_t flag (the coordinator's cycle loop polls it
/// between cycles) and, in the site role, calls the client's lock-free
/// RequestStop() so the session loop drains out as if kShutdown arrived.
volatile std::sig_atomic_t g_shutdown_requested = 0;
SiteClient* g_signal_client = nullptr;

void HandleTerminationSignal(int /*signo*/) {
  g_shutdown_requested = 1;
  if (g_signal_client != nullptr) g_signal_client->RequestStop();
}

void InstallTerminationHandlers() {
  std::signal(SIGTERM, HandleTerminationSignal);
  std::signal(SIGINT, HandleTerminationSignal);
}

/// Shared deployment configuration both tiers derive from the same flags:
/// any mismatch here would have the coordinator and sites monitoring
/// different queries, so everything comes from the workload + flags only.
RuntimeConfig MakeRuntimeConfig(const Flags& flags,
                                const StreamSource& source) {
  RuntimeConfig config;
  config.threshold = flags.threshold;
  config.delta = flags.delta;
  config.max_step_norm = source.max_step_norm();
  config.drift_norm_cap = source.max_drift_norm();
  config.seed = flags.seed;
  config.socket_retry = flags.socket_retry;
  config.trace_sample_rate = flags.trace_sample;
  return config;
}

/// Arms the always-on flight recorder for a daemon role: the process-wide
/// ring receives every recorded trace event, and a SIGSEGV/SIGABRT dumps it
/// to `flags.flight_dump` (or a role-derived default) as parseable JSONL.
void ArmFlightRecorder(const Flags& flags, Telemetry* telemetry,
                       const std::string& role) {
  FlightRecorder& flight = FlightRecorder::Instance();
  telemetry->trace.AttachFlightRecorder(&flight);
  const std::string path = flags.flight_dump.empty()
                               ? "sgm-flight-" + role + ".jsonl"
                               : flags.flight_dump;
  flight.InstallCrashDump(path);
}

/// Parses "--connect=[host:]port". Only loopback is supported, so the host
/// part (if any) is validated away rather than resolved.
int ParseConnectPort(const std::string& endpoint) {
  if (endpoint.empty()) return -1;  // no --connect: the caller says so
  const auto colon = endpoint.rfind(':');
  const std::string port_str =
      colon == std::string::npos ? endpoint : endpoint.substr(colon + 1);
  if (colon != std::string::npos) {
    const std::string host = endpoint.substr(0, colon);
    if (host != "127.0.0.1" && host != "localhost") {
      std::fprintf(stderr, "--connect supports loopback only (got %s)\n",
                   host.c_str());
      return -1;
    }
  }
  int port = -1;
  return ParseInteger("connect", port_str, 1, &port, kMaxPort) ? port : -1;
}

/// Rewrites the Prometheus textfile atomically (write-then-rename), so a
/// scraping node-exporter never reads a torn snapshot.
bool WritePromFile(const Telemetry& telemetry, const std::string& path) {
  return AtomicWriteFile(path, [&telemetry](std::ostream& out) {
           telemetry.WritePrometheus(out);
         })
      .ok();
}

/// Registers the role-independent ops routes (/metrics, /alerts) and binds
/// the listener; the caller adds its role-specific /healthz first. Prints
/// the bound port on stdout so harnesses can scrape an ephemeral port.
bool StartOpsEndpoints(HttpExporter* http, const Telemetry* telemetry,
                       int port) {
  http->Route("/metrics", "text/plain; version=0.0.4; charset=utf-8",
              [telemetry] {
                std::ostringstream out;
                telemetry->WritePrometheus(out);
                return out.str();
              });
  http->Route("/alerts", "application/json", [telemetry] {
    return telemetry->anomaly != nullptr ? telemetry->anomaly->AlertsJson()
                                         : std::string("[]\n");
  });
  // On-demand postmortem window: the same JSONL the fatal-signal handler
  // would dump, served live (oldest event first).
  http->Route("/flightrecorder", "application/x-ndjson",
              [] { return FlightRecorder::Instance().DumpString(); });
  const Status status = http->Start(port);
  if (!status.ok()) {
    std::fprintf(stderr, "ops endpoints bind failed: %s\n",
                 status.ToString().c_str());
    return false;
  }
  std::printf("ops endpoints on 127.0.0.1:%d\n", http->port());
  std::fflush(stdout);
  return true;
}

int RunCoordinatorDaemon(const Flags& flags) {
  auto source = MakeWorkload(flags);
  if (source == nullptr) return 2;
  auto function = MakeFunction(flags, *source);
  if (function == nullptr) return 2;

  Telemetry telemetry;
  telemetry.trace.SetProcess("coordinator");
  ArmFlightRecorder(flags, &telemetry, "coordinator");
  if (!flags.series_out.empty()) telemetry.EnableTimeSeries();

  // A crashed previous incarnation may have died between writing the .tmp
  // and the rename; a stale .tmp would otherwise sit next to the live file
  // forever (and confuse textfile collectors that glob the directory).
  if (!flags.prom_out.empty()) RemoveStaleTempFile(flags.prom_out);
  if (!flags.series_out.empty()) RemoveStaleTempFile(flags.series_out);

  std::ofstream alerts_stream;
  if (!flags.alerts_out.empty()) {
    AnomalyDetectorConfig anomaly_config;
    anomaly_config.seed = flags.seed;
    telemetry.EnableAnomalyDetection(anomaly_config);
    // Append + flush-per-alert: a restarted incarnation continues the same
    // alert log, and a SIGKILL loses at most the alert being written.
    alerts_stream.open(flags.alerts_out, std::ios::app);
    if (!alerts_stream) {
      std::fprintf(stderr, "cannot open %s\n", flags.alerts_out.c_str());
      return 2;
    }
    telemetry.anomaly->AttachStream(&alerts_stream);
  }

  CoordinatorServerConfig config;
  config.port = flags.listen_port;
  config.num_sites = source->num_sites();
  config.barrier_deadline_ms = flags.barrier_deadline_ms;
  config.runtime = MakeRuntimeConfig(flags, *source);
  config.runtime.telemetry = &telemetry;
  config.runtime.failure_detector.lagging_after_deadline_misses =
      flags.lagging_misses;

  std::unique_ptr<FileCheckpointStore> store;
  if (!flags.checkpoint_dir.empty()) {
    store = std::make_unique<FileCheckpointStore>(flags.checkpoint_dir);
    config.runtime.checkpoint_store = store.get();
  }
  if (flags.recover && store == nullptr) {
    std::fprintf(stderr, "--recover requires --checkpoint-dir\n");
    return 2;
  }

  CoordinatorServer server(*function, config);
  if (!server.Listen()) {
    std::fprintf(stderr, "cannot listen on 127.0.0.1:%d\n",
                 flags.listen_port);
    return 2;
  }
  if (flags.recover) {
    if (!server.Recover()) {
      std::fprintf(stderr, "recovery failed: no decodable snapshot in %s\n",
                   flags.checkpoint_dir.c_str());
      return 4;
    }
    std::printf("coordinator recovered from %s: epoch %ld, resuming after "
                "cycle %ld\n",
                flags.checkpoint_dir.c_str(),
                static_cast<long>(server.Epoch()), server.CyclesRun() - 1);
  }
  HttpExporter http;
  if (flags.http_port >= 0) {
    http.Route("/healthz", "application/json",
               [&server] { return server.HealthJson(); });
    if (!StartOpsEndpoints(&http, &telemetry, flags.http_port)) return 2;
  }
  InstallTerminationHandlers();
  std::printf("coordinator listening on 127.0.0.1:%d, waiting for %d "
              "sites\n",
              server.port(), config.num_sites);
  std::fflush(stdout);
  if (!server.WaitForSites()) {
    std::fprintf(stderr, "timed out waiting for site registrations\n");
    return 1;
  }
  // Cycle 0 is the initialization sync; then flags.cycles update cycles.
  // A recovered incarnation completes the original schedule: it resumes
  // from the restored cycle counter instead of running --cycles anew.
  bool terminated_by_signal = false;
  for (long cycle = server.CyclesRun(); cycle <= flags.cycles; ++cycle) {
    if (g_shutdown_requested) {
      terminated_by_signal = true;
      break;
    }
    if (!server.RunCycle()) {
      std::fprintf(stderr, "cycle %ld: barrier timeout (site lost?)\n",
                   cycle);
      server.Shutdown();
      return 1;
    }
    if (!flags.prom_out.empty() &&
        !WritePromFile(telemetry, flags.prom_out)) {
      std::fprintf(stderr, "cannot write %s\n", flags.prom_out.c_str());
      server.Shutdown();
      return 2;
    }
  }
  if (terminated_by_signal) {
    // Graceful drain: persist the last completed cycle before the
    // kShutdown broadcast, so a --recover restart resumes exactly here.
    if (store != nullptr) server.FlushCheckpoint();
    std::printf("coordinator: termination signal — final checkpoint %s, "
                "shutting down after cycle %ld\n",
                store != nullptr ? "flushed" : "skipped (no --checkpoint-dir)",
                server.CyclesRun() - 1);
  }
  server.Shutdown();

  std::printf("cycles run            %12ld\n", server.CyclesRun());
  std::printf("paper messages        %12ld\n", server.PaperMessages());
  std::printf("  from sites          %12ld\n", server.PaperSiteMessages());
  std::printf("paper bytes           %12.0f\n", server.PaperBytes());
  std::printf("transport frames      %12ld\n",
              server.transport().transport_messages_sent());
  std::printf("transport bytes       %12.0f\n",
              server.transport().transport_bytes_sent());
  std::printf("full syncs            %12ld\n", server.FullSyncs());
  std::printf("partial resolutions   %12ld\n", server.PartialResolutions());
  std::printf("degraded syncs        %12ld\n", server.DegradedSyncs());
  std::printf("epoch                 %12ld\n",
              static_cast<long>(server.Epoch()));
  std::printf("final belief          %12s\n",
              server.BelievesAbove() ? "above" : "below");

  if (!flags.trace_out.empty()) {
    std::ofstream out(flags.trace_out);
    if (!out) return 2;
    telemetry.trace.WriteJsonl(out);
  }
  if (!flags.metrics_out.empty()) {
    std::ofstream out(flags.metrics_out);
    if (!out) return 2;
    telemetry.WriteMetricsJson(out);
  }
  if (!flags.series_out.empty()) {
    const Status written =
        AtomicWriteFile(flags.series_out, [&telemetry](std::ostream& out) {
          telemetry.series->WriteJsonl(out);
        });
    if (!written.ok()) return 2;
  }
  return 0;
}

int RunSiteDaemon(const Flags& flags) {
  auto source = MakeWorkload(flags);
  if (source == nullptr) return 2;
  auto function = MakeFunction(flags, *source);
  if (function == nullptr) return 2;
  const int port = ParseConnectPort(flags.connect);
  if (port < 0) {
    std::fprintf(stderr, "--site needs --connect=[host:]port\n");
    return 2;
  }
  if (flags.site_id >= source->num_sites()) {
    std::fprintf(stderr, "--site=%d out of range (N=%d)\n", flags.site_id,
                 source->num_sites());
    return 2;
  }

  Telemetry telemetry;
  telemetry.trace.SetProcess("site-" + std::to_string(flags.site_id));
  ArmFlightRecorder(flags, &telemetry, "site-" + std::to_string(flags.site_id));

  SiteClientConfig config;
  config.site_id = flags.site_id;
  config.num_sites = source->num_sites();
  config.port = port;
  config.runtime = MakeRuntimeConfig(flags, *source);
  config.runtime.telemetry = &telemetry;
  config.max_reconnects = flags.max_reconnects;

  SiteClient client(*function, config);
  g_signal_client = &client;
  InstallTerminationHandlers();
  HttpExporter http;
  if (flags.http_port >= 0) {
    http.Route("/healthz", "application/json",
               [&client] { return client.HealthJson(); });
    if (!StartOpsEndpoints(&http, &telemetry, flags.http_port)) return 2;
  }
  // Per-process observability artifacts, written on every exit path: the
  // site's own trace (proc="site-N", coordinator epochs stamped as they
  // anchor) is one input file of `trace_inspect --merge`.
  const auto write_artifacts = [&]() -> bool {
    if (!flags.trace_out.empty()) {
      std::ofstream out(flags.trace_out);
      if (!out) return false;
      telemetry.trace.WriteJsonl(out);
    }
    if (!flags.metrics_out.empty()) {
      std::ofstream out(flags.metrics_out);
      if (!out) return false;
      telemetry.WriteMetricsJson(out);
    }
    return true;
  };
  if (!client.Connect()) {
    std::fprintf(stderr,
                 "site %d: exit reason=connect-give-up attempts=%d "
                 "endpoint=127.0.0.1:%d\n",
                 flags.site_id, flags.socket_retry.max_attempts, port);
    return 4;
  }
  // The site's stream is regenerated locally: every process runs the same
  // seeded generator and takes its own column, so the deployment observes
  // exactly the vectors the single-process driver would.
  std::vector<Vector> locals;
  long advanced = 0;
  const bool clean = client.Run([&](long cycle) {
    while (advanced <= cycle) {
      source->Advance(&locals);
      ++advanced;
    }
    return locals[static_cast<std::size_t>(flags.site_id)];
  });
  if (!write_artifacts()) return 2;
  if (clean) {
    std::printf("site %d: %ld cycles observed, clean shutdown "
                "(reconnects=%ld)\n",
                flags.site_id, client.cycles_observed(), client.reconnects());
    return 0;
  }
  // Structured abnormal-exit line: every silent failure mode gets a named
  // reason and a distinct exit code the supervisor can branch on.
  std::fprintf(stderr,
               "site %d: exit reason=%s reconnects=%ld cycles_observed=%ld\n",
               flags.site_id, SiteExitReasonName(client.exit_reason()),
               client.reconnects(), client.cycles_observed());
  switch (client.exit_reason()) {
    case SiteExitReason::kShutdown: return 0;  // unreachable when !clean
    case SiteExitReason::kCoordinatorEof: return 3;
    case SiteExitReason::kConnectGiveUp: return 4;
    case SiteExitReason::kRecvError: return 5;
    case SiteExitReason::kStreamPoisoned: return 6;
    case SiteExitReason::kSendFailed: return 7;
    case SiteExitReason::kPollError: return 8;
  }
  return 1;
}

int Run(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  if (flags.listen_port >= 0 && flags.site_id >= 0) {
    std::fprintf(stderr, "--listen and --site are mutually exclusive\n");
    return 2;
  }
  if (flags.listen_port >= 0) return RunCoordinatorDaemon(flags);
  if (flags.site_id >= 0) return RunSiteDaemon(flags);

  auto source = MakeWorkload(flags);
  if (source == nullptr) return 2;
  auto function = MakeFunction(flags, *source);
  if (function == nullptr) return 2;
  auto protocol = MakeProtocol(flags, *function, *source);
  if (protocol == nullptr) return 2;

  Telemetry telemetry;
  const bool want_telemetry =
      !flags.trace_out.empty() || !flags.metrics_out.empty();
  if (want_telemetry) protocol->set_telemetry(&telemetry);

  const RunResult r = Simulate(source.get(), protocol.get(), flags.cycles);
  const int n = source->num_sites();

  if (want_telemetry) {
    r.metrics.PublishTo(&telemetry.registry);
    if (!flags.trace_out.empty()) {
      std::ofstream out(flags.trace_out);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", flags.trace_out.c_str());
        return 2;
      }
      telemetry.trace.WriteJsonl(out);
    }
    if (!flags.metrics_out.empty()) {
      std::ofstream out(flags.metrics_out);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", flags.metrics_out.c_str());
        return 2;
      }
      telemetry.WriteMetricsJson(out);
    }
  }

  std::printf("workload=%s function=%s protocol=%s N=%d T=%g delta=%g "
              "cycles=%ld\n\n",
              source->name().c_str(), function->name().c_str(),
              protocol->name().c_str(), n, flags.threshold, flags.delta,
              r.cycles);
  std::printf("total messages        %12ld\n", r.metrics.total_messages());
  std::printf("  from sites          %12ld\n", r.metrics.site_messages());
  std::printf("  from coordinator    %12ld\n",
              r.metrics.coordinator_messages());
  std::printf("total bytes           %12.0f\n", r.metrics.total_bytes());
  std::printf("per-site msgs/update  %12.5f\n",
              r.metrics.SiteMessagesPerUpdate(n));
  std::printf("full syncs            %12ld\n", r.metrics.full_syncs());
  std::printf("partial resolutions   %12ld\n",
              r.metrics.partial_resolutions());
  std::printf("1-d resolutions       %12ld\n",
              r.metrics.one_d_resolutions());
  std::printf("false positives       %12ld\n", r.metrics.false_positives());
  std::printf("false-negative cycles %12ld (rate %.5f)\n",
              r.metrics.false_negative_cycles(),
              static_cast<double>(r.metrics.false_negative_cycles()) /
                  static_cast<double>(r.cycles));
  std::printf("FN duration mode/mdn  %10ld / %.1f\n",
              r.metrics.FnDurationMode(), r.metrics.FnDurationMedian());
  std::printf("cycles above T (true) %12ld\n", r.true_crossing_cycles);
  std::printf("final belief          %12s\n",
              protocol->BelievesAbove() ? "above" : "below");
  return 0;
}

}  // namespace
}  // namespace sgm

int main(int argc, char** argv) { return sgm::Run(argc, argv); }

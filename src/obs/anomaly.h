#ifndef SGM_OBS_ANOMALY_H_
#define SGM_OBS_ANOMALY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metric_registry.h"
#include "obs/trace.h"

namespace sgm {

/// One tracked signal: a dotted counter name observed as its per-cycle
/// delta (the same stream TimeSeriesExporter records as "delta").
struct AnomalySignal {
  std::string metric;
  /// Absolute floor on |x − mean| before an alert can fire, in units of the
  /// counter's per-cycle delta. Keeps small-count jitter (the first full
  /// sync of a run, a single retransmission) below the alarm line even when
  /// the history's variance is still ~0.
  double min_delta = 1.0;
  /// Minimum samples this signal must have observed before it may alert;
  /// -1 inherits AnomalyDetectorConfig::warmup. 0 marks a *zero-tolerance*
  /// signal — a counter whose baseline is "never moves" (crash recovery,
  /// reliability give-ups): any motion alerts immediately, which is how a
  /// coordinator restart shows up on the very first post-recovery cycle.
  long warmup = -1;
};

/// Tuning of the online detector. Everything here is deterministic: the
/// seed is not a randomness source (the detector draws nothing) but the
/// identity of the metric stream's schedule, stamped into every alert so an
/// alerts file names the run that produced it.
struct AnomalyDetectorConfig {
  long warmup = 25;
  /// Minimum cycles between consecutive alerts on the same signal, so a
  /// regime shift raises one alert instead of a storm while the Welford
  /// baseline absorbs the new regime.
  long cooldown = 25;
  std::uint64_t seed = 0;
  /// Signals to track; empty = DefaultAnomalySignals().
  std::vector<AnomalySignal> signals;
};

/// The default ops surface: the paper-cost stream (message rate, full-sync
/// rate), the accuracy stream (FN rate), the session/reliability stream
/// (reconnects, retransmissions) and the zero-tolerance restart signal.
std::vector<AnomalySignal> DefaultAnomalySignals();

/// One raised alert. `kind` is "spike" (delta above the band) or "drop"
/// (below); zero-tolerance signals always read "spike".
struct Alert {
  long cycle = 0;
  std::string metric;
  std::string kind;
  double value = 0.0;   ///< the per-cycle delta that fired
  double mean = 0.0;    ///< Welford mean of the history (pre-update)
  double stddev = 0.0;  ///< Welford stddev of the history (pre-update)
  double z = 0.0;       ///< |value − mean| / max(stddev, 1e-9)
  std::uint64_t seed = 0;
};

/// One `{"cycle":..,"metric":..,"kind":..,"value":..,"mean":..,"stddev":..,
/// "z":..,"seed":..}` object, deterministically formatted.
void AppendAlertJson(const Alert& alert, std::ostream& out);

/// Seeded, deterministic Welford z-score detector over per-cycle counter
/// deltas (the resource-monitor pattern: online mean/variance per signal,
/// alert when a sample leaves the z band). Subscribes to the
/// TimeSeriesExporter sample stream via Telemetry::EnableAnomalyDetection;
/// identical metric streams + config produce byte-identical alert output.
///
/// Pure observer: it never feeds back into the protocol, and its optional
/// sinks (metric counters, trace events, live JSONL stream) only record.
class AnomalyDetector {
 public:
  explicit AnomalyDetector(AnomalyDetectorConfig config = {});

  /// Optional sinks, all nullable: alert.* counters into `registry`,
  /// catalog-validated `alert_raised` trace events into `trace`.
  void SetSinks(MetricRegistry* registry, TraceLog* trace);

  /// Optional live stream: each alert is appended (one JSONL line) and
  /// flushed the moment it fires, so the alerts file survives a SIGKILL of
  /// the observed process — the same reason the belief log in the chaos
  /// harness appends eagerly. Not owned; must outlive the detector.
  void AttachStream(std::ostream* stream);

  /// Observes one cycle's per-cycle counter deltas (missing signals count
  /// as delta 0, so a signal that never moves still builds its baseline).
  /// Call once per cycle in cycle order.
  void ObserveCycle(long cycle, const std::map<std::string, long>& delta);

  /// Snapshot of the alerts raised so far (copies under the lock — safe
  /// against a concurrent ObserveCycle, e.g. from the HTTP ops thread).
  std::vector<Alert> alerts() const;
  std::size_t alert_count() const;
  const AnomalyDetectorConfig& config() const { return config_; }

  /// All alerts so far, one JSONL line each (same bytes the live stream
  /// received).
  void WriteAlertsJsonl(std::ostream& out) const;
  /// JSON array of the same records, for the /alerts HTTP endpoint.
  std::string AlertsJson() const;

 private:
  struct SignalState {
    AnomalySignal signal;
    long count = 0;      // Welford sample count
    double mean = 0.0;   // Welford running mean
    double m2 = 0.0;     // Welford sum of squared deviations
    long last_alert_cycle = 0;
    bool alerted = false;
  };

  mutable std::mutex mu_;
  AnomalyDetectorConfig config_;
  std::vector<SignalState> signals_;
  std::vector<Alert> alerts_;
  MetricRegistry* registry_ = nullptr;
  TraceLog* trace_ = nullptr;
  std::ostream* stream_ = nullptr;
};

}  // namespace sgm

#endif  // SGM_OBS_ANOMALY_H_

#include "obs/anomaly.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/json.h"

namespace sgm {

std::vector<AnomalySignal> DefaultAnomalySignals() {
  // min_delta floors are calibrated against the clean 50-seed dst_stress
  // sweep (24 sites, 300 cycles): a faultless run's per-cycle deltas must
  // stay inside the band for every seed — the CI no-false-positive gate
  // replays exactly that check. A full sync costs ~2N+2 paper messages, so
  // the paper-message floor has to clear a first-ever full sync arriving
  // after a quiet warmup; the session/restart signals are quiet in clean
  // runs and use tight floors.
  return {
      {"transport.paper_messages", /*min_delta=*/120.0, /*warmup=*/-1},
      {"coordinator.full_syncs", /*min_delta=*/3.0, /*warmup=*/-1},
      {"audit.false_negatives", /*min_delta=*/3.0, /*warmup=*/-1},
      {"transport.retransmissions", /*min_delta=*/4.0, /*warmup=*/-1},
      {"socket.site_disconnects", /*min_delta=*/1.0, /*warmup=*/-1},
      {"socket.site_rehellos", /*min_delta=*/1.0, /*warmup=*/-1},
      // A lagging verdict never fires on a healthy deployment: any lag
      // quarantine is a straggler incident worth an alert.
      {"degraded.lag_quarantines", /*min_delta=*/1.0, /*warmup=*/-1},
      // Zero-tolerance: a restore only ever happens when the coordinator
      // came back from a crash — alert on the first post-recovery cycle.
      {"recovery.restores", /*min_delta=*/1.0, /*warmup=*/0},
  };
}

void AppendAlertJson(const Alert& alert, std::ostream& out) {
  out << "{\"cycle\":" << alert.cycle << ",\"metric\":\""
      << JsonEscape(alert.metric) << "\",\"kind\":\"" << JsonEscape(alert.kind)
      << "\",\"value\":";
  AppendJsonNumber(out, alert.value);
  out << ",\"mean\":";
  AppendJsonNumber(out, alert.mean);
  out << ",\"stddev\":";
  AppendJsonNumber(out, alert.stddev);
  out << ",\"z\":";
  AppendJsonNumber(out, alert.z);
  out << ",\"seed\":" << alert.seed << "}";
}

AnomalyDetector::AnomalyDetector(AnomalyDetectorConfig config)
    : config_(std::move(config)) {
  if (config_.signals.empty()) config_.signals = DefaultAnomalySignals();
  signals_.reserve(config_.signals.size());
  for (const AnomalySignal& signal : config_.signals) {
    SignalState state;
    state.signal = signal;
    if (state.signal.warmup < 0) state.signal.warmup = config_.warmup;
    signals_.push_back(std::move(state));
  }
}

void AnomalyDetector::SetSinks(MetricRegistry* registry, TraceLog* trace) {
  std::lock_guard<std::mutex> lock(mu_);
  registry_ = registry;
  trace_ = trace;
}

void AnomalyDetector::AttachStream(std::ostream* stream) {
  std::lock_guard<std::mutex> lock(mu_);
  stream_ = stream;
}

void AnomalyDetector::ObserveCycle(long cycle,
                                   const std::map<std::string, long>& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  for (SignalState& state : signals_) {
    const auto it = delta.find(state.signal.metric);
    const double x = it == delta.end() ? 0.0 : static_cast<double>(it->second);

    // Test against the pre-update baseline, then fold the sample in — the
    // anomalous sample itself must not dilute the band it is judged by.
    const double sigma =
        state.count > 1 ? std::sqrt(state.m2 / static_cast<double>(
                                                   state.count - 1))
                        : 0.0;
    const double deviation = x - state.mean;
    const double magnitude = std::fabs(deviation);
    const double denom = std::max(sigma, config_.stddev_floor);
    const double z = magnitude / denom;

    const bool warm = state.count >= state.signal.warmup;
    const bool in_cooldown =
        state.alerted && cycle - state.last_alert_cycle < config_.cooldown;
    if (warm && !in_cooldown && magnitude >= state.signal.min_delta &&
        z > config_.z_threshold) {
      Alert alert;
      alert.cycle = cycle;
      alert.metric = state.signal.metric;
      alert.kind = deviation >= 0 ? "spike" : "drop";
      alert.value = x;
      alert.mean = state.mean;
      alert.stddev = sigma;
      alert.z = z;
      alert.seed = config_.seed;
      state.alerted = true;
      state.last_alert_cycle = cycle;

      if (registry_ != nullptr) {
        registry_->GetCounter("alert.raised")->Increment();
        registry_->GetCounter("alert.raised." + alert.metric)->Increment();
      }
      if (trace_ != nullptr) {
        // Actor -1: alerts are a deployment-level verdict, reported on the
        // coordinator's pseudo-thread like other global events.
        trace_->Emit(TraceEventId::kAlertRaised, -1,
                     {{"metric", alert.metric},
                      {"kind", alert.kind},
                      {"value", alert.value},
                      {"mean", alert.mean},
                      {"z", alert.z}});
      }
      if (stream_ != nullptr) {
        AppendAlertJson(alert, *stream_);
        *stream_ << "\n";
        stream_->flush();
      }
      alerts_.push_back(std::move(alert));
    }

    // Welford update.
    state.count += 1;
    const double d1 = x - state.mean;
    state.mean += d1 / static_cast<double>(state.count);
    state.m2 += d1 * (x - state.mean);
  }
}

std::vector<Alert> AnomalyDetector::alerts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_;
}

std::size_t AnomalyDetector::alert_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_.size();
}

void AnomalyDetector::WriteAlertsJsonl(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Alert& alert : alerts_) {
    AppendAlertJson(alert, out);
    out << "\n";
  }
}

std::string AnomalyDetector::AlertsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const Alert& alert : alerts_) {
    out << (first ? "" : ",");
    AppendAlertJson(alert, out);
    first = false;
  }
  out << "]";
  return out.str();
}

}  // namespace sgm

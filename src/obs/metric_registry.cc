#include "obs/metric_registry.h"

#include <algorithm>
#include <sstream>

#include "core/check.h"
#include "obs/export.h"
#include "obs/json.h"

namespace sgm {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  SGM_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bucket edge");
  SGM_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                "histogram bucket edges must be ascending");
  buckets_ = std::make_unique<std::atomic<long>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // == size(): overflow
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<long> Histogram::bucket_counts() const {
  std::vector<long> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

long Histogram::overflow_count() const {
  return buckets_[bounds_.size()].load(std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const {
  q = std::min(1.0, std::max(0.0, q));
  const std::vector<long> counts = bucket_counts();
  long total = 0;
  for (const long c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  long cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i == bounds_.size()) return bounds_.back();  // overflow: clamp
    const double upper = bounds_[i];
    const double lower = i == 0 ? 0.0 : bounds_[i - 1];
    if (counts[i] == 0) return upper;
    const double into_bucket =
        (rank - static_cast<double>(cumulative - counts[i])) /
        static_cast<double>(counts[i]);
    return lower + (upper - lower) * into_bucket;
  }
  return bounds_.back();
}

const std::vector<double>& LatencyBucketsNs() {
  static const std::vector<double>* buckets = [] {
    auto* edges = new std::vector<double>;
    for (double edge = 256.0; edge <= 67'108'864.0 * 1.5; edge *= 2.0) {
      edges->push_back(edge);
    }
    return edges;
  }();
  return *buckets;
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(bounds);
  return slot.get();
}

void MetricRegistry::WriteJson(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "" : ",") << "\n    \"" << name
        << "\": " << counter->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out << (first ? "" : ",") << "\n    \"" << name << "\": ";
    AppendJsonNumber(out, gauge->value());
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out << (first ? "" : ",") << "\n    \"" << name
        << "\": {\"count\": " << histogram->count() << ", \"sum\": ";
    AppendJsonNumber(out, histogram->sum());
    out << ", \"p50\": ";
    AppendJsonNumber(out, histogram->Quantile(0.50));
    out << ", \"p95\": ";
    AppendJsonNumber(out, histogram->Quantile(0.95));
    out << ", \"p99\": ";
    AppendJsonNumber(out, histogram->Quantile(0.99));
    out << ", \"overflow\": " << histogram->overflow_count();
    out << ", \"buckets\": [";
    const std::vector<long> counts = histogram->bucket_counts();
    const std::vector<double>& bounds = histogram->bounds();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out << ", ";
      out << "{\"le\": ";
      if (i < bounds.size()) {
        AppendJsonNumber(out, bounds[i]);
      } else {
        out << "\"+inf\"";
      }
      out << ", \"count\": " << counts[i] << "}";
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

void MetricRegistry::WritePrometheus(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    // The exposed counter family carries the conventional _total suffix;
    // HELP/TYPE reference the exposed name.
    const std::string prom = PrometheusMetricName(name) + "_total";
    out << "# HELP " << prom << " "
        << PrometheusEscapeHelp(PrometheusHelpText(name)) << "\n";
    out << "# TYPE " << prom << " counter\n";
    out << prom << " " << counter->value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = PrometheusMetricName(name);
    out << "# HELP " << prom << " "
        << PrometheusEscapeHelp(PrometheusHelpText(name)) << "\n";
    out << "# TYPE " << prom << " gauge\n";
    out << prom << " ";
    AppendJsonNumber(out, gauge->value());
    out << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string prom = PrometheusMetricName(name);
    out << "# HELP " << prom << " "
        << PrometheusEscapeHelp(PrometheusHelpText(name)) << "\n";
    out << "# TYPE " << prom << " histogram\n";
    const std::vector<long> counts = histogram->bucket_counts();
    const std::vector<double>& bounds = histogram->bounds();
    long cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      cumulative += counts[i];
      std::ostringstream le;
      if (i < bounds.size()) {
        AppendJsonNumber(le, bounds[i]);
      } else {
        le << "+Inf";
      }
      out << prom << "_bucket{le=\""
          << PrometheusEscapeLabelValue(le.str()) << "\"} " << cumulative
          << "\n";
    }
    out << prom << "_sum ";
    AppendJsonNumber(out, histogram->sum());
    out << "\n" << prom << "_count " << histogram->count() << "\n";
    // Above-last-edge observations, surfaced as an explicit (untyped)
    // companion series: quantile estimates clamp there, so alerting on a
    // nonzero value catches a histogram whose layout no longer fits.
    out << prom << "_overflow " << histogram->overflow_count() << "\n";
  }
}

std::map<std::string, long> MetricRegistry::SnapshotCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, long> out;
  for (const auto& [name, counter] : counters_) out[name] = counter->value();
  return out;
}

std::map<std::string, double> MetricRegistry::SnapshotGauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, gauge] : gauges_) out[name] = gauge->value();
  return out;
}

MetricRegistry& MetricRegistry::Default() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

}  // namespace sgm

#ifndef SGM_OBS_METRIC_REGISTRY_H_
#define SGM_OBS_METRIC_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace sgm {

/// Monotone event count. Increments are lock-free (relaxed atomics) so hot
/// paths and concurrent components can share one instance; Set() exists for
/// mirroring an externally-owned tally into the registry at snapshot time
/// (the runtime nodes keep plain longs on their single-threaded hot paths
/// and publish them here — see RuntimeDriver::PublishMetrics).
class Counter {
 public:
  void Increment(long delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Set(long value) { value_.store(value, std::memory_order_relaxed); }
  long value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<long> value_{0};
};

/// Last-written instantaneous value (queue depth, live-site count, bytes).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper edges,
/// with an implicit overflow bucket above the last edge. Observations are
/// lock-free; bucket layout is frozen at construction so snapshots never
/// race a resize.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  long count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// One count per bound plus the overflow bucket (size = bounds+1).
  std::vector<long> bucket_counts() const;
  /// Observations above the last edge. Exposed explicitly (JSON "overflow",
  /// Prometheus `<name>_overflow`) because Quantile() clamps these to the
  /// last edge — a nonzero overflow means the reported p99 is a floor, not
  /// an estimate, and the bucket layout needs wider edges.
  long overflow_count() const;

  /// Estimated q-quantile (q in [0,1]) by linear interpolation inside the
  /// holding bucket, the standard Prometheus histogram_quantile estimate.
  /// Observations in the overflow bucket clamp to the last edge; an empty
  /// histogram reports 0.
  double Quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<long>[]> buckets_;
  std::atomic<long> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default latency edges for profiling scopes, in nanoseconds: exponential
/// 2^k ns from 256 ns to ~67 ms (19 buckets), covering sub-microsecond ball
/// tests up to multi-millisecond sync rounds.
const std::vector<double>& LatencyBucketsNs();

/// Process- or component-scoped metric registry.
///
/// Names are hierarchical by convention — dotted, lower_snake leaf:
/// `transport.retransmissions`, `coordinator.full_syncs`,
/// `site.ball_test_ns`. Lookup/creation takes a mutex; the returned pointer
/// is stable for the registry's lifetime, so hot paths cache it once and
/// increment lock-free afterwards.
///
/// One registry per deployment (RuntimeDriver owns one per telemetry
/// context) keeps concurrent drivers — the parity stress leg runs two —
/// from conflating counts; MetricRegistry::Default() serves code without a
/// context, e.g. the serialization profiling scopes.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Re-requesting an existing histogram ignores `bounds` (layout is fixed
  /// at first creation).
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds = LatencyBucketsNs());

  /// Serializes every metric as one JSON object, keys sorted (deterministic
  /// modulo the recorded values):
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {name: {"count": n, "sum": s,
  ///                          "p50": v, "p95": v, "p99": v,
  ///                          "buckets": [{"le": edge, "count": c}...]}}}
  void WriteJson(std::ostream& out) const;

  /// Serializes every metric in the Prometheus text exposition format
  /// (version 0.0.4): names are prefixed `sgm_` with dots mapped to
  /// underscores; counters end in `_total`, histograms expand to cumulative
  /// `_bucket{le=...}` series plus `_sum` and `_count`.
  void WritePrometheus(std::ostream& out) const;

  /// Point-in-time snapshots for time-series exporters (name → value,
  /// sorted). Counter/gauge reads are relaxed-atomic per entry; the maps
  /// themselves are consistent under the registry mutex.
  std::map<std::string, long> SnapshotCounters() const;
  std::map<std::string, double> SnapshotGauges() const;

  /// The process-wide default instance.
  static MetricRegistry& Default();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// A fixed table of counter and gauge rows, each a metric name and a
/// reader over `Source`, mirrored into one registry. The handles are
/// resolved on the first Publish (and again only if the registry changes),
/// so a per-cycle publish does no name lookup and takes no registry lock,
/// and a row appears in the registry exactly when it is first published.
/// The row tables are static arrays, and every registry published to must
/// outlive this object (its handles are cached).
template <typename Source>
class MetricRows {
 public:
  struct CounterRow {
    const char* name;
    long (*read)(const Source&);
  };
  struct GaugeRow {
    const char* name;
    double (*read)(const Source&);
  };

  explicit MetricRows(std::span<const CounterRow> counters,
                      std::span<const GaugeRow> gauges = {})
      : counter_rows_(counters), gauge_rows_(gauges) {}

  void Publish(MetricRegistry* registry, const Source& source) {
    if (registry != registry_) {
      registry_ = registry;
      counters_.clear();
      gauges_.clear();
      for (const CounterRow& row : counter_rows_) {
        counters_.push_back(registry->GetCounter(row.name));
      }
      for (const GaugeRow& row : gauge_rows_) {
        gauges_.push_back(registry->GetGauge(row.name));
      }
    }
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      counters_[i]->Set(counter_rows_[i].read(source));
    }
    for (std::size_t i = 0; i < gauges_.size(); ++i) {
      gauges_[i]->Set(gauge_rows_[i].read(source));
    }
  }

 private:
  std::span<const CounterRow> counter_rows_;
  std::span<const GaugeRow> gauge_rows_;
  MetricRegistry* registry_ = nullptr;
  std::vector<Counter*> counters_;
  std::vector<Gauge*> gauges_;
};

}  // namespace sgm

#endif  // SGM_OBS_METRIC_REGISTRY_H_

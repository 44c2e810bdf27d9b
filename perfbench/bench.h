// Shared pieces of the perfbench driver: run options, the result record
// every workload fills, timing statistics, and the span recorder used by
// the traced runs.
#ifndef SGM_PERFBENCH_BENCH_H_
#define SGM_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sgm {
class TraceLog;
}  // namespace sgm

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke mode: one segment of a few cycles; every gate still runs.
  bool smoke = false;
  /// Where the traced run writes its spans (empty: keep them in memory only).
  std::string spans_path;
};

/// What one workload run hands back to main(): every metric it measured
/// (name → value; main() prints the ones the mode asks for, with units),
/// plus the cycle accounting and the correctness gates' verdicts.
struct RunReport {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> gate_failures;
  std::map<std::string, double> metrics;

  void Fail(const std::string& why) { gate_failures.push_back(why); }
};

/// Per-cycle protocol state the gates compare between two executions of
/// the same inputs.
struct CycleRecord {
  bool believes_above = false;
  std::int64_t epoch = 0;
  long paper_messages = 0;
  long transport_messages = 0;
  long full_syncs = 0;
  long partial_resolutions = 0;

  bool operator==(const CycleRecord&) const = default;
};

/// Returns "" when the two sequences match, else a description of the
/// first divergence.
std::string CompareRecords(const std::vector<CycleRecord>& expected,
                           const std::vector<CycleRecord>& actual);

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty set.
double Quantile(std::vector<double> values, double q);

/// JSONL bytes the trace log's recorded events serialize to (written to a
/// discarding stream, which fills TraceLog::SelfCost::bytes_written).
double TraceBytes(const sgm::TraceLog& trace);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Which reference kernel measures the host's speed for a workload: the one
/// whose work is most like the workload's hot path, so that a slow spell
/// slows both by the same factor.
enum class HostReference {
  /// Integer mixing, a dependent L2-sized table walk and floating-point
  /// accumulation: the paper simulator's vector arithmetic, and the
  /// loopback coordinator thread.
  kCompute,
  /// malloc/free churn of small blocks: the sim runtime, which allocates
  /// messages and vectors on every hop.
  kAllocation,
};

/// Host speed at this moment, as a slowdown against the reference speed.
///
/// On a shared host the CPU a run gets changes speed by up to 1.5× from one
/// second to the next (other tenants' load; no steal time, the same code
/// simply runs slower), and a slow or fast spell can last minutes, so no
/// amount of repetition inside a run averages it out. Every timing the
/// benchmark reports is therefore divided by the slowdown measured right
/// around it: the time of a fixed reference kernel over its time at the
/// reference speed. Timings read as µs at the reference speed. The kernels
/// live here, not in the library, so no change to the program can move
/// them. Each call takes well under a millisecond.
double HostSlowdown(HostReference reference);

/// Times one interval at the reference speed: the slowdown is sampled
/// before Start() and at Stop(), and the interval is divided by their mean.
class NormalizedTimer {
 public:
  explicit NormalizedTimer(HostReference reference) : reference_(reference) {}

  void Start() {
    before_ = HostSlowdown(reference_);
    start_ = NowNs();
  }
  /// Elapsed ns since Start(), at the reference speed.
  double StopNs() {
    const double ns = static_cast<double>(NowNs() - start_);
    return ns / (0.5 * (before_ + HostSlowdown(reference_)));
  }

 private:
  HostReference reference_;
  double before_ = 1.0;
  std::int64_t start_ = 0;
};

/// Wall time of each timed cycle of one segment, plus whether it ran a sync
/// cascade, at the reference speed. Add() takes raw wall times; every
/// kSampleEveryNs of wall time (outside the caller's clock) it samples the
/// host slowdown and rescales the cycles since the last sample by the mean
/// of the two samples around them. Finish() rescales the rest; call it
/// before reading the fields.
struct CycleTimings {
  static constexpr std::int64_t kSampleEveryNs = 20'000'000;

  std::vector<double> cycle_ns;
  std::vector<double> sync_cycle_ns;
  double total_ns = 0.0;
  double raw_total_ns = 0.0;  ///< unscaled wall time

  explicit CycleTimings(HostReference reference)
      : reference_(reference),
        last_slowdown_(HostSlowdown(reference)),
        last_sample_(NowNs()) {}

  void Add(double ns, bool sync) {
    pending_.push_back({ns, sync});
    raw_total_ns += ns;
    if (NowNs() - last_sample_ >= kSampleEveryNs) Flush();
  }
  void Finish() {
    if (!pending_.empty()) Flush();
  }

 private:
  void Flush();

  struct Pending {
    double ns;
    bool sync;
  };
  std::vector<Pending> pending_;
  HostReference reference_;
  double last_slowdown_;
  std::int64_t last_sample_;
};

/// The cycle-level end-to-end timings of a run. Each percentile is taken per
/// segment (one deployment each) and reported as the median over segments;
/// updates_per_s is the run's site updates over its total cycle time.
class RunTimings {
 public:
  /// `segment` must be Finish()ed.
  void AddSegment(const CycleTimings& segment, int sites);
  /// updates_per_s, cycle_p50_us, cycle_p99_us, sync_cycle_p50_us.
  void Report(RunReport* report) const;
  double cycle_p50_us() const;
  /// Unscaled wall time of the timed cycles, for ratios against the
  /// library's own wall-clock histograms.
  double raw_total_ns() const { return raw_total_ns_; }

 private:
  std::vector<double> p50_us_, p99_us_, sync_p50_us_, slowdown_;
  double updates_ = 0.0;
  long cycles_ = 0;
  long sync_cycles_ = 0;
  double total_ns_ = 0.0;
  double raw_total_ns_ = 0.0;
};

/// trace.overhead_pct: the traced run's cycle_p50_us against the untraced
/// one over the same segments, in percent.
double OverheadPct(const RunTimings& traced, const RunTimings& untraced);

/// The fixed work of one run: `segments` independent input segments of
/// `cycles` cycles each, every segment on a fresh deployment. The segment
/// count scales with --seconds at a rate calibrated once per workload, never
/// with the speed observed in the run, so the work a run does — and every
/// count it reports — depends only on the seed and --seconds.
struct Plan {
  int segments = 1;
  long cycles = 0;
};

/// `cycles_per_s` is the workload's calibrated wall-clock pace including
/// input generation and the oracle (see README.md). Smoke runs do one
/// segment of `smoke_cycles`.
Plan MakePlan(const RunOptions& options, double seconds, double cycles_per_s,
              long segment_cycles, long smoke_cycles);

/// Segments a traced run repeats with tracing on: as many as take about
/// the same wall time as the untraced half, given how much slower a traced
/// segment runs (calibrated per workload). At least one.
inline int TracedSegments(const Plan& plan, double traced_slowdown) {
  const double n = static_cast<double>(plan.segments) / traced_slowdown;
  return n < 1.5 ? 1 : static_cast<int>(n + 0.5);
}

/// Seed of segment `k` of a run.
std::uint64_t SegmentSeed(std::uint64_t seed, int k);

/// Each segment sets up one deployment; runs whose plan has fewer segments
/// than this add set-ups (without cycles) so setup_s is a median of at
/// least this many.
inline constexpr int kMinSetups = 9;

/// In-memory span recorder for the traced runs. Spans nest strictly (one
/// thread, call/return order), so each span's self time is its duration
/// minus the time its direct children cover, accumulated on close. Every
/// span carries its name, start, end, parent and the cycle it belongs to;
/// the first `keep` spans are retained verbatim and written out by
/// WriteJsonl() when the run ends.
///
/// Recording a span costs two clock reads plus bookkeeping, part of which
/// lands inside the span and part in its parent. The constructor measures
/// both parts on empty spans, and self times are corrected by them, so a
/// layer's self time is not inflated by the spans of its children.
class SpanTracer {
 public:
  SpanTracer(std::vector<std::string> names, std::size_t keep);

  void SetCycle(long cycle) { cycle_ = cycle; }
  /// Toggle only between top-level calls: a disabled tracer records
  /// nothing, so Begin/End stay paired.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  void Begin(int name) {
    if (!enabled_) return;
    Frame frame;
    frame.name = name;
    if (kept_.size() < keep_) {
      frame.kept = static_cast<std::int64_t>(kept_.size());
      kept_.push_back(Span{name, cycle_,
                           stack_.empty() ? -1 : stack_.back().kept, 0, 0});
    }
    stack_.push_back(frame);
    stack_.back().start = NowNs();
  }

  void End() {
    if (!enabled_) return;
    const std::int64_t end = NowNs();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const double duration = static_cast<double>(end - frame.start);
    Totals& totals = totals_[frame.name];
    totals.self_ns += duration - frame.child_ns -
                      frame.children * overhead_in_parent_ns_ -
                      overhead_in_span_ns_;
    totals.total_ns += duration;
    ++totals.calls;
    if (!stack_.empty()) {
      stack_.back().child_ns += duration;
      ++stack_.back().children;
    }
    if (frame.kept >= 0) {
      kept_[frame.kept].start = frame.start;
      kept_[frame.kept].end = end;
    }
  }

  /// RAII span.
  class Scope {
   public:
    Scope(SpanTracer* tracer, int name) : tracer_(tracer) {
      tracer_->Begin(name);
    }
    ~Scope() { tracer_->End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTracer* tracer_;
  };

  struct Totals {
    double self_ns = 0.0;   ///< overhead-corrected
    double total_ns = 0.0;  ///< raw durations
    long calls = 0;
  };
  const Totals& totals(int name) const { return totals_[name]; }
  long spans_recorded() const;
  /// Calibrated cost of recording one span (inside it plus in its parent).
  double span_cost_ns() const {
    return overhead_in_span_ns_ + overhead_in_parent_ns_;
  }

  /// One JSON object per kept span:
  /// {"id":..,"parent":..,"cycle":..,"name":..,"start_ns":..,"end_ns":..}.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Frame {
    int name = 0;
    std::int64_t start = 0;
    double child_ns = 0.0;
    long children = 0;
    std::int64_t kept = -1;
  };
  struct Span {
    int name;
    long cycle;
    std::int64_t parent;
    std::int64_t start;
    std::int64_t end;
  };

  /// Measures the two overhead terms on empty spans, then clears totals.
  void Calibrate();

  std::vector<std::string> names_;
  std::size_t keep_;
  long cycle_ = 0;
  bool enabled_ = true;
  double overhead_in_span_ns_ = 0.0;
  double overhead_in_parent_ns_ = 0.0;
  std::vector<Frame> stack_;
  std::vector<Totals> totals_;
  std::vector<Span> kept_;
};

// Workload entry points (one per translation unit).
RunReport RunRuntimeSim(const RunOptions& options);
RunReport RunLoopback(const RunOptions& options);
RunReport RunPaper(const RunOptions& options);

}  // namespace perfbench

#endif  // SGM_PERFBENCH_BENCH_H_

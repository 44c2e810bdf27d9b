#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <streambuf>

#include "core/rng.h"
#include "obs/trace.h"

namespace perfbench {

std::string CompareRecords(const std::vector<CycleRecord>& expected,
                           const std::vector<CycleRecord>& actual) {
  if (expected.size() != actual.size()) {
    return "cycle count " + std::to_string(actual.size()) + " != " +
           std::to_string(expected.size());
  }
  for (std::size_t t = 0; t < expected.size(); ++t) {
    const CycleRecord& e = expected[t];
    const CycleRecord& a = actual[t];
    if (e == a) continue;
    const char* field = e.believes_above != a.believes_above ? "belief"
                        : e.epoch != a.epoch                 ? "epoch"
                        : e.paper_messages != a.paper_messages
                            ? "paper_messages"
                        : e.transport_messages != a.transport_messages
                            ? "transport_messages"
                        : e.full_syncs != a.full_syncs ? "full_syncs"
                                                       : "partial_resolutions";
    return std::string(field) + " differs at cycle " + std::to_string(t + 1);
  }
  return "";
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

namespace {

/// Counts and discards everything written to it.
class NullBuffer final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

}  // namespace

double TraceBytes(const sgm::TraceLog& trace) {
  NullBuffer buffer;
  std::ostream sink(&buffer);
  trace.WriteJsonl(sink);
  return static_cast<double>(trace.self_cost().bytes_written);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB
}

namespace {

/// Kernel time at the reference speed per kind: the fast end of the range
/// each kernel showed on a 4-vCPU Xeon VM (GCC -O2).
constexpr double kComputeNominalNs = 100'000.0;
constexpr double kAllocationNominalNs = 80'000.0;
constexpr int kKernelRepeats = 3;

/// Integer mixing, a dependent walk over a 256 KiB table and floating-point
/// accumulation; returns its wall time in ns.
double ComputeKernelNs() {
  constexpr std::uint32_t kTableSize = 1u << 16;
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(kTableSize);
    for (std::uint32_t i = 0; i < kTableSize; ++i) {
      t[i] = (i * 2654435761u) & (kTableSize - 1);
    }
    return t;
  }();
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  std::uint32_t j = 0;
  double acc = 0.0;
  const std::int64_t start = NowNs();
  for (int i = 0; i < 20'000; ++i) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    h ^= h >> 29;
    j = table[(j + static_cast<std::uint32_t>(h)) & (kTableSize - 1)];
    acc = acc * 0.999 + static_cast<double>(j);
  }
  // Keeps the loop's results live so the compiler cannot drop it.
  asm volatile("" : : "g"(acc), "g"(h) : "memory");
  return static_cast<double>(NowNs() - start);
}

/// malloc/free churn over 256 live blocks of 32 B to 1 KiB, each touched
/// once; frees every block before returning, so the program's heap is left
/// as it was. Returns its wall time in ns.
double AllocationKernelNs() {
  constexpr int kSlots = 256;
  void* slots[kSlots] = {};
  std::uint64_t h = 0x2545F4914F6CDD1Dull;
  const std::int64_t start = NowNs();
  for (int i = 0; i < 5'000; ++i) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    void*& slot = slots[(h >> 40) % kSlots];
    std::free(slot);
    slot = std::malloc(32 + ((h >> 20) & 1023));
    std::memset(slot, i, 32);
    // The block escapes, so the compiler cannot elide the malloc/free pair.
    asm volatile("" : : "g"(slot) : "memory");
  }
  for (void* slot : slots) std::free(slot);
  const std::int64_t end = NowNs();
  return static_cast<double>(end - start);
}

}  // namespace

double HostSlowdown(HostReference reference) {
  // The fastest of a few passes, so an interrupt during one pass does not
  // read as a slow host.
  double best = 1e18;
  for (int r = 0; r < kKernelRepeats; ++r) {
    best = std::min(best, reference == HostReference::kAllocation
                              ? AllocationKernelNs()
                              : ComputeKernelNs());
  }
  return best / (reference == HostReference::kAllocation
                     ? kAllocationNominalNs
                     : kComputeNominalNs);
}

void CycleTimings::Flush() {
  const double now = HostSlowdown(reference_);
  const double slowdown = 0.5 * (last_slowdown_ + now);
  for (const Pending& p : pending_) {
    const double ns = p.ns / slowdown;
    cycle_ns.push_back(ns);
    if (p.sync) sync_cycle_ns.push_back(ns);
    total_ns += ns;
  }
  pending_.clear();
  last_slowdown_ = now;
  last_sample_ = NowNs();
}

void RunTimings::AddSegment(const CycleTimings& segment, int sites) {
  if (segment.cycle_ns.empty()) return;
  slowdown_.push_back(segment.raw_total_ns / segment.total_ns);
  p50_us_.push_back(Quantile(segment.cycle_ns, 0.50) / 1e3);
  p99_us_.push_back(Quantile(segment.cycle_ns, 0.99) / 1e3);
  if (!segment.sync_cycle_ns.empty()) {
    sync_p50_us_.push_back(Quantile(segment.sync_cycle_ns, 0.50) / 1e3);
  }
  updates_ += static_cast<double>(sites) *
              static_cast<double>(segment.cycle_ns.size());
  cycles_ += static_cast<long>(segment.cycle_ns.size());
  sync_cycles_ += static_cast<long>(segment.sync_cycle_ns.size());
  total_ns_ += segment.total_ns;
  raw_total_ns_ += segment.raw_total_ns;
}

double RunTimings::cycle_p50_us() const { return Quantile(p50_us_, 0.5); }

void RunTimings::Report(RunReport* report) const {
  auto& m = report->metrics;
  m["updates_per_s"] = total_ns_ > 0.0 ? updates_ / (total_ns_ * 1e-9) : 0.0;
  m["cycle_p50_us"] = cycle_p50_us();
  m["cycle_p99_us"] = Quantile(p99_us_, 0.5);
  m["sync_cycle_p50_us"] = Quantile(sync_p50_us_, 0.5);
  // Diagnostics (stderr only): the spread of the per-segment medians and
  // the host slowdown the timings were divided by.
  m["segment_cycle_p50_us_min"] = Quantile(p50_us_, 0.0);
  m["segment_cycle_p50_us_max"] = Quantile(p50_us_, 1.0);
  m["host_slowdown_min"] = Quantile(slowdown_, 0.0);
  m["host_slowdown_max"] = Quantile(slowdown_, 1.0);
  m["timed_cycles"] = static_cast<double>(cycles_);
  m["sync_cycles"] = static_cast<double>(sync_cycles_);
}

double OverheadPct(const RunTimings& traced, const RunTimings& untraced) {
  const double base = untraced.cycle_p50_us();
  return base > 0.0 ? 100.0 * (traced.cycle_p50_us() - base) / base : 0.0;
}

Plan MakePlan(const RunOptions& options, double seconds, double cycles_per_s,
              long segment_cycles, long smoke_cycles) {
  if (options.smoke) return {1, smoke_cycles};
  const double total = seconds * cycles_per_s;
  const int segments = static_cast<int>(
      std::max(1.0, std::round(total / static_cast<double>(segment_cycles))));
  return {segments, segment_cycles};
}

std::uint64_t SegmentSeed(std::uint64_t seed, int k) {
  return sgm::DeriveSeed(seed, 1000 + static_cast<std::uint64_t>(k));
}

SpanTracer::SpanTracer(std::vector<std::string> names, std::size_t keep)
    : names_(std::move(names)), keep_(keep), totals_(names_.size()) {
  stack_.reserve(16);
  Calibrate();
  kept_.reserve(keep_);
}

void SpanTracer::Calibrate() {
  // A parent holding many empty children: each child's measured duration is
  // the part of a span's cost that lands inside it, and the parent's
  // uncorrected self time per child is the part that lands in the parent.
  // The smallest of a few trials filters out preemption.
  constexpr int kChildren = 2000;
  const std::size_t keep = keep_;
  keep_ = 0;
  double in_span = 1e18, in_parent = 1e18;
  for (int trial = 0; trial < 5; ++trial) {
    totals_.assign(names_.size(), Totals{});
    Begin(0);
    for (int i = 0; i < kChildren; ++i) {
      Begin(1);
      End();
    }
    End();
    in_span = std::min(in_span, totals_[1].total_ns / kChildren);
    in_parent = std::min(
        in_parent, (totals_[0].total_ns - totals_[1].total_ns) / kChildren);
  }
  overhead_in_span_ns_ = in_span;
  overhead_in_parent_ns_ = in_parent;
  totals_.assign(names_.size(), Totals{});
  keep_ = keep;
}

long SpanTracer::spans_recorded() const {
  long total = 0;
  for (const Totals& t : totals_) total += t.calls;
  return total;
}

bool SpanTracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"cycle\":" << s.cycle << ",\"name\":\"" << names_[s.name]
        << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench

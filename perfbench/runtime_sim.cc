// The two simulated-runtime workloads, fleet-2048 and storm-128.
//
// Untraced runs drive the faultless three-argument RuntimeDriver (nodes →
// ReliableTransport → InMemoryBus), the reference deployment. Traced runs
// wire the same stack from the public classes, with benchmark-owned
// Transport shims at the node→reliability and reliability→bus boundaries
// and a delivery loop that mirrors RuntimeDriver's RouteToQuiescence, so
// every layer call can be wrapped in a span. A gate requires the traced
// stack to reproduce RuntimeDriver's per-cycle state exactly.
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "core/check.h"
#include "core/rng.h"
#include "data/jester_like.h"
#include "data/reuters_like.h"
#include "functions/chi_square.h"
#include "functions/linf_distance.h"
#include "obs/telemetry.h"
#include "runtime/coordinator_node.h"
#include "runtime/driver.h"
#include "runtime/reliable_transport.h"
#include "runtime/site_node.h"
#include "runtime/transport.h"

namespace perfbench {
namespace {

using sgm::RuntimeMessage;
using sgm::Vector;

struct SimSpec {
  int sites;
  bool jester;  ///< Jester-like L∞ (fleet) or Reuters-like χ² (storm)
  std::size_t window;
  double threshold;
  /// Jester-like global mood-shift spacing in cycles (0: generator default).
  int shift_spacing;
  long segment_cycles;
  double cycles_per_s;     ///< calibrated pace, see MakePlan
  double traced_slowdown;  ///< see TracedSegments
};

/// fleet-2048 runs without the Jester-like global mood shifts: each shift
/// is a true crossing answered by a 2,050-message full sync, and with one
/// every ~1,500 cycles a 20 s run sees 2 to 9 of them, so the per-cycle
/// paper cost would swing ±25% from seed to seed. Without them the fleet is
/// what it is meant to be, quiet with quirk-cluster probes, and storm-128
/// carries the full-sync path.
SimSpec SpecFor(const std::string& workload) {
  if (workload == "fleet-2048") {
    return {2048, true, 50, 20.0, 1000000000, 1000, 750.0, 4.0};
  }
  SGM_CHECK(workload == "storm-128");
  return {128, false, 200, 0.5, 0, 5000, 5000.0, 2.5};
}

constexpr std::size_t kJesterBuckets = 8;
constexpr double kTraceSampleRate = 0.1;
constexpr HostReference kHostReference = HostReference::kAllocation;

std::unique_ptr<sgm::StreamSource> MakeSource(const SimSpec& spec,
                                              std::uint64_t seed) {
  if (spec.jester) {
    sgm::JesterLikeConfig config;
    config.num_sites = spec.sites;
    config.window = spec.window;
    config.num_buckets = kJesterBuckets;
    if (spec.shift_spacing > 0) config.shift_spacing = spec.shift_spacing;
    config.seed = sgm::DeriveSeed(seed, 101);
    return std::make_unique<sgm::JesterLikeGenerator>(config);
  }
  sgm::ReutersLikeConfig config;
  config.num_sites = spec.sites;
  config.window = spec.window;
  config.seed = sgm::DeriveSeed(seed, 101);
  return std::make_unique<sgm::ReutersLikeGenerator>(config);
}

std::unique_ptr<sgm::MonitoredFunction> MakeFunction(const SimSpec& spec) {
  if (spec.jester) {
    return std::make_unique<sgm::LInfDistance>(Vector(kJesterBuckets));
  }
  return std::make_unique<sgm::ChiSquare>(static_cast<double>(spec.window));
}

sgm::RuntimeConfig NodeConfig(const SimSpec& spec, std::uint64_t seed,
                              const sgm::StreamSource& source,
                              sgm::Telemetry* telemetry) {
  sgm::RuntimeConfig config;
  config.threshold = spec.threshold;
  config.max_step_norm = source.max_step_norm();
  config.drift_norm_cap = source.max_drift_norm();
  config.seed = sgm::DeriveSeed(seed, 202);
  config.telemetry = telemetry;
  config.trace_sample_rate = kTraceSampleRate;
  return config;
}

/// The lock-step oracle, evaluated outside the clock: the exact mean of the
/// sites' vectors through a function clone re-anchored whenever the
/// coordinator completes a full sync, exactly as every node re-anchors.
class Oracle {
 public:
  Oracle(const sgm::MonitoredFunction& function, double threshold)
      : function_(function.Clone()), threshold_(threshold) {}

  /// Returns true when the coordinator's belief is a false negative/
  /// positive against the truth this cycle.
  bool Wrong(const std::vector<Vector>& locals, long full_syncs,
             const Vector& estimate, bool believes_above) {
    if (full_syncs > seen_full_syncs_) {
      seen_full_syncs_ = full_syncs;
      function_->OnSync(estimate);
    }
    Vector mean(locals.front().dim());
    for (const Vector& v : locals) mean += v;
    mean /= static_cast<double>(locals.size());
    return (function_->Value(mean) > threshold_) != believes_above;
  }

 private:
  std::unique_ptr<sgm::MonitoredFunction> function_;
  double threshold_;
  long seen_full_syncs_ = 0;
};

// ── Traced stack ─────────────────────────────────────────────────────────

enum Span : int {
  kCycle,
  kBeginCycle,
  kObserve,
  kSiteOnMessage,
  kCoordOnMessage,
  kOnQuiescent,
  kReliableSend,
  kReliableOnDeliver,
  kReliableAdvanceRound,
  kBusSend,
  kBusPop,
  kPublishMetrics,
};

std::vector<std::string> SpanNames() {
  return {"cycle",
          "coordinator_node.begin_cycle",
          "site_node.observe",
          "site_node.on_message",
          "coordinator_node.on_message",
          "coordinator_node.on_quiescent",
          "reliable_transport.send",
          "reliable_transport.on_deliver",
          "reliable_transport.advance_round",
          "bus.send",
          "bus.pop",
          "obs.publish_metrics"};
}

/// Forwards to `lower` inside a span named `name`.
class SpanShim final : public sgm::Transport {
 public:
  SpanShim(sgm::Transport* lower, SpanTracer* tracer, int name)
      : lower_(lower), tracer_(tracer), name_(name) {}
  void Send(const RuntimeMessage& message) override {
    SpanTracer::Scope span(tracer_, name_);
    lower_->Send(message);
  }

 private:
  sgm::Transport* lower_;
  SpanTracer* tracer_;
  int name_;
};

/// The faultless RuntimeDriver stack rebuilt from public classes, with a
/// span around every call into a layer. Mirrors RuntimeDriver's
/// BuildNodes / Initialize / Tick / RouteToQuiescence / Deliver /
/// PublishMetrics for the wiring without a fault layer or checkpoint store.
class TracedDeployment {
 public:
  TracedDeployment(int num_sites, const sgm::MonitoredFunction& function,
                   const sgm::RuntimeConfig& config, SpanTracer* tracer)
      : tracer_(tracer),
        telemetry_(config.telemetry),
        bus_shim_(&bus_, tracer, kBusSend),
        reliable_(&bus_shim_, num_sites, config.reliability, telemetry_),
        reliable_shim_(&reliable_, tracer, kReliableSend),
        coordinator_(num_sites, function, config, &reliable_shim_) {
    SGM_CHECK(telemetry_ != nullptr);
    telemetry_->trace.ConfigureSampling(config.trace_sample_rate,
                                        config.seed);
    coordinator_.AttachReliability(&reliable_);
    sites_.reserve(num_sites);
    for (int i = 0; i < num_sites; ++i) {
      sites_.push_back(std::make_unique<sgm::SiteNode>(
          i, num_sites, function, config, &reliable_shim_));
    }
  }

  /// The initialization sync runs untraced; the counters it moved are
  /// snapshotted so the per-cycle figures cover the ticks only.
  void Initialize(const std::vector<Vector>& locals) {
    telemetry_->SetCycle(cycle_);
    tracer_->set_enabled(false);
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      sites_[i]->Observe(locals[i]);
    }
    coordinator_.Start();
    RouteToQuiescence();
    PublishMetrics();
    tracer_->set_enabled(true);
    coordinator_messages_ = 0;
    probe_epochs_.clear();
    drift_reports_.clear();
    baseline_ = Snapshot();
  }

  /// Library-held counters the per-layer metrics are read from.
  struct Counters {
    long acks = 0;
    long heartbeats = 0;
    long ball_tests = 0;
    double ball_test_ns = 0.0;
    long full_syncs = 0;
    double full_sync_ns = 0.0;
    long ht_folds = 0;
    double ht_fold_ns = 0.0;
    long long telemetry_ns = 0;
    long trace_events = 0;
  };
  Counters Snapshot() const {
    Counters c;
    c.acks = reliable_.stats().acks_sent;
    for (const auto& site : sites_) {
      c.heartbeats += site->audit().heartbeats_sent;
    }
    sgm::MetricRegistry& registry = telemetry_->registry;
    const sgm::Histogram* ball = registry.GetHistogram("site.ball_test_ns");
    c.ball_tests = ball->count();
    c.ball_test_ns = ball->sum();
    const sgm::Histogram* sync =
        registry.GetHistogram("coordinator.full_sync_ns");
    c.full_syncs = sync->count();
    c.full_sync_ns = sync->sum();
    const sgm::Histogram* ht =
        registry.GetHistogram("coordinator.ht_estimate_ns");
    c.ht_folds = ht->count();
    c.ht_fold_ns = ht->sum();
    const sgm::TraceLog::SelfCost cost = telemetry_->trace.self_cost();
    c.telemetry_ns = cost.telemetry_ns;
    c.trace_events = cost.events_emitted;
    return c;
  }
  const Counters& baseline() const { return baseline_; }

  void Tick(const std::vector<Vector>& locals) {
    telemetry_->SetCycle(++cycle_);
    tracer_->SetCycle(cycle_);
    SpanTracer::Scope root(tracer_, kCycle);
    {
      SpanTracer::Scope span(tracer_, kBeginCycle);
      coordinator_.BeginCycle();
    }
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      SpanTracer::Scope span(tracer_, kObserve);
      sites_[i]->Observe(locals[i]);
    }
    RouteToQuiescence();
    SpanTracer::Scope span(tracer_, kPublishMetrics);
    PublishMetrics();
  }

  const sgm::CoordinatorNode& coordinator() const { return coordinator_; }
  const sgm::InMemoryBus& bus() const { return bus_; }
  long coordinator_messages() const { return coordinator_messages_; }
  /// kDriftReports the coordinator received for each probe round.
  std::vector<double> ProbeSampleSizes() const {
    std::vector<double> sizes;
    for (const std::int64_t epoch : probe_epochs_) {
      const auto it = drift_reports_.find(epoch);
      sizes.push_back(it == drift_reports_.end() ? 0.0 : it->second);
    }
    return sizes;
  }

 private:
  void Deliver(int receiver, const RuntimeMessage& message) {
    fresh_.clear();
    {
      SpanTracer::Scope span(tracer_, kReliableOnDeliver);
      reliable_.OnDeliver(receiver, message, &fresh_);
    }
    for (const RuntimeMessage& m : fresh_) {
      if (receiver == sgm::kCoordinatorId) {
        ++coordinator_messages_;
        if (m.type == RuntimeMessage::Type::kDriftReport) {
          ++drift_reports_[m.epoch];
        }
        SpanTracer::Scope span(tracer_, kCoordOnMessage);
        coordinator_.OnMessage(m);
      } else {
        SpanTracer::Scope span(tracer_, kSiteOnMessage);
        sites_[receiver]->OnMessage(m);
      }
    }
  }

  void RouteToQuiescence() {
    for (;;) {
      for (;;) {
        while (!bus_.empty()) {
          RuntimeMessage message = [&] {
            SpanTracer::Scope span(tracer_, kBusPop);
            return bus_.Pop();
          }();
          if (message.type == RuntimeMessage::Type::kProbeRequest &&
              !message.retransmit) {
            probe_epochs_.insert(message.epoch);
          }
          if (message.to == sgm::kCoordinatorId) {
            Deliver(sgm::kCoordinatorId, message);
          } else if (message.to == sgm::kBroadcastId) {
            for (auto& site : sites_) Deliver(site->id(), message);
          } else {
            Deliver(message.to, message);
          }
        }
        if (!reliable_.HasUnacked()) break;
        SpanTracer::Scope span(tracer_, kReliableAdvanceRound);
        reliable_.AdvanceRound();
      }
      {
        SpanTracer::Scope span(tracer_, kOnQuiescent);
        coordinator_.OnQuiescent();
      }
      if (bus_.empty() && !reliable_.HasUnacked()) return;
    }
  }

  /// RuntimeDriver::PublishMetrics for the faultless wiring.
  void PublishMetrics() {
    sgm::MetricRegistry* registry = &telemetry_->registry;
    registry->GetCounter("transport.paper_messages")
        ->Set(bus_.messages_sent());
    registry->GetCounter("transport.paper_site_messages")
        ->Set(bus_.site_messages_sent());
    registry->GetGauge("transport.paper_bytes")->Set(bus_.bytes_sent());
    registry->GetCounter("transport.total_messages")
        ->Set(bus_.transport_messages_sent());
    registry->GetGauge("transport.total_bytes")
        ->Set(bus_.transport_bytes_sent());
    reliable_.PublishMetrics(registry);

    const sgm::CoordinatorNode::AuditStats coord = coordinator_.audit();
    registry->GetCounter("coordinator.full_syncs")
        ->Set(coordinator_.full_syncs());
    registry->GetCounter("coordinator.partial_resolutions")
        ->Set(coordinator_.partial_resolutions());
    registry->GetCounter("coordinator.degraded_syncs")
        ->Set(coordinator_.degraded_syncs());
    registry->GetCounter("coordinator.epoch")
        ->Set(static_cast<long>(coordinator_.epoch()));
    registry->GetCounter("coordinator.stale_epoch_drops")
        ->Set(coord.stale_epoch_drops);
    registry->GetCounter("coordinator.stale_epoch_applied")
        ->Set(coord.stale_epoch_applied);
    registry->GetCounter("coordinator.late_reports")->Set(coord.late_reports);
    registry->GetCounter("coordinator.rejoins_granted")
        ->Set(coord.rejoins_granted);
    registry->GetCounter("coordinator.sync_rerequests")
        ->Set(coord.sync_rerequests);

    sgm::SiteNode::AuditStats sites_total;
    for (const auto& site : sites_) {
      const sgm::SiteNode::AuditStats audit = site->audit();
      sites_total.stale_epoch_drops += audit.stale_epoch_drops;
      sites_total.stale_epoch_applied += audit.stale_epoch_applied;
      sites_total.heartbeats_sent += audit.heartbeats_sent;
      sites_total.rejoin_requests_sent += audit.rejoin_requests_sent;
    }
    registry->GetCounter("site.stale_epoch_drops")
        ->Set(sites_total.stale_epoch_drops);
    registry->GetCounter("site.stale_epoch_applied")
        ->Set(sites_total.stale_epoch_applied);
    registry->GetCounter("site.heartbeats_sent")
        ->Set(sites_total.heartbeats_sent);
    registry->GetCounter("site.rejoin_requests_sent")
        ->Set(sites_total.rejoin_requests_sent);

    const sgm::FailureDetector& fd = coordinator_.failure_detector();
    registry->GetCounter("failure.total_deaths")->Set(fd.total_deaths());
    registry->GetGauge("failure.live_count")
        ->Set(static_cast<double>(fd.live_count()));
    registry->GetCounter("degraded.cycles")
        ->Set(coordinator_.degraded_cycles());
    registry->GetGauge("degraded.lagging_sites")
        ->Set(static_cast<double>(fd.lagging_count()));
    registry->GetCounter("degraded.lag_quarantines")
        ->Set(fd.total_lagging_verdicts());
    registry->GetCounter("degraded.staleness_cycles_total")
        ->Set(fd.staleness_cycles_total());
    registry->GetGauge("degraded.staleness_cycles_max")
        ->Set(static_cast<double>(fd.staleness_cycles_max()));

    const sgm::TraceLog::SelfCost cost = telemetry_->trace.self_cost();
    registry->GetCounter("obs.trace.events")->Set(cost.events_emitted);
    registry->GetCounter("obs.trace.recorded")->Set(cost.events_recorded);
    registry->GetCounter("obs.trace.sampled_out")
        ->Set(cost.events_sampled_out);
    registry->GetCounter("obs.trace.bytes_written")
        ->Set(static_cast<long>(cost.bytes_written));
    registry->GetCounter("obs.telemetry.ns")
        ->Set(static_cast<long>(cost.telemetry_ns));
  }

  SpanTracer* tracer_;
  sgm::Telemetry* telemetry_;
  sgm::InMemoryBus bus_;
  SpanShim bus_shim_;
  sgm::ReliableTransport reliable_;
  SpanShim reliable_shim_;
  sgm::CoordinatorNode coordinator_;
  std::vector<std::unique_ptr<sgm::SiteNode>> sites_;
  std::vector<RuntimeMessage> fresh_;
  long cycle_ = 0;
  Counters baseline_;
  long coordinator_messages_ = 0;
  std::set<std::int64_t> probe_epochs_;
  std::map<std::int64_t, int> drift_reports_;
};

// ── Passes ───────────────────────────────────────────────────────────────

template <typename Deployment>
CycleRecord Record(const Deployment& d) {
  CycleRecord r;
  r.believes_above = d.coordinator().BelievesAbove();
  r.epoch = d.coordinator().epoch();
  r.paper_messages = d.bus().messages_sent();
  r.transport_messages = d.bus().transport_messages_sent();
  r.full_syncs = d.coordinator().full_syncs();
  r.partial_resolutions = d.coordinator().partial_resolutions();
  return r;
}

/// What one segment produced.
struct SegmentOutcome {
  double setup_s = 0.0;
  CycleRecord init;  ///< right after the initialization sync
  double init_bytes = 0.0;
  std::vector<CycleRecord> records;  ///< one per cycle, init excluded
  long fn_cycles = 0;
  double transport_bytes = 0.0;
};

/// One segment: build the deployment, run the initialization sync (both on
/// the setup clock), then `cycles` ticks. The generator and the oracle run
/// outside every clock. `make` builds the deployment; `keep` receives it
/// afterwards when the caller reads its counters.
template <typename Deployment, typename Make>
SegmentOutcome RunSegment(const SimSpec& spec, std::uint64_t seed,
                          long cycles, const sgm::MonitoredFunction& function,
                          Make make, CycleTimings* timings,
                          std::unique_ptr<Deployment>* keep = nullptr) {
  SegmentOutcome out;
  auto source = MakeSource(spec, seed);
  std::vector<Vector> locals;
  source->Advance(&locals);
  NormalizedTimer setup(kHostReference);
  setup.Start();
  std::unique_ptr<Deployment> d = make(*source);
  d->Initialize(locals);
  out.setup_s = setup.StopNs() * 1e-9;
  out.init = Record(*d);
  out.init_bytes = d->bus().transport_bytes_sent();

  Oracle oracle(function, spec.threshold);
  out.records.reserve(static_cast<std::size_t>(cycles));
  for (long t = 1; t <= cycles; ++t) {
    source->Advance(&locals);
    const std::int64_t epoch_before = d->coordinator().epoch();
    const std::int64_t start = NowNs();
    d->Tick(locals);
    const double ns = static_cast<double>(NowNs() - start);
    const CycleRecord r = Record(*d);
    if (timings != nullptr) timings->Add(ns, r.epoch != epoch_before);
    out.records.push_back(r);
    if (oracle.Wrong(locals, r.full_syncs, d->coordinator().estimate(),
                     r.believes_above)) {
      ++out.fn_cycles;
    }
  }
  if (timings != nullptr) timings->Finish();
  out.transport_bytes = d->bus().transport_bytes_sent();
  if (keep != nullptr) *keep = std::move(d);
  return out;
}

/// Sums of the per-cycle counters over the segments of a run.
struct CountTotals {
  long cycles = 0;
  long paper_messages = 0;
  long transport_messages = 0;
  double transport_bytes = 0.0;
  long fn_cycles = 0;
  long full_syncs = 0;
  long partial_resolutions = 0;

  void Add(const SegmentOutcome& pass) {
    if (pass.records.empty()) return;
    const CycleRecord& last = pass.records.back();
    cycles += static_cast<long>(pass.records.size());
    paper_messages += last.paper_messages - pass.init.paper_messages;
    transport_messages +=
        last.transport_messages - pass.init.transport_messages;
    transport_bytes += pass.transport_bytes - pass.init_bytes;
    fn_cycles += pass.fn_cycles;
    full_syncs += last.full_syncs - pass.init.full_syncs;
    partial_resolutions +=
        last.partial_resolutions - pass.init.partial_resolutions;
  }
  void Report(RunReport* report) const {
    const double n = static_cast<double>(cycles);
    auto& m = report->metrics;
    m["paper_msgs_per_cycle"] = static_cast<double>(paper_messages) / n;
    m["transport_msgs_per_cycle"] = static_cast<double>(transport_messages) / n;
    m["transport_bytes_per_cycle"] = transport_bytes / n;
    m["fn_cycle_rate"] = static_cast<double>(fn_cycles) / n;
    m["belief_accuracy"] = 1.0 - static_cast<double>(fn_cycles) / n;
    m["full_syncs"] = static_cast<double>(full_syncs);
    m["partial_resolutions"] = static_cast<double>(partial_resolutions);
  }
};

}  // namespace

RunReport RunRuntimeSim(const RunOptions& options) {
  const SimSpec spec = SpecFor(options.workload);
  // A traced run spends half its budget on the untraced baseline and the
  // other half tracing the first of those segments again.
  const Plan plan = MakePlan(options, options.trace ? options.seconds / 2
                                                    : options.seconds,
                             spec.cycles_per_s, spec.segment_cycles, 20);
  const long cycles = plan.cycles;
  const auto function = MakeFunction(spec);
  RunReport report;

  const auto make_driver = [&](std::uint64_t seed, sgm::Telemetry* telemetry) {
    return [&, seed, telemetry](const sgm::StreamSource& source) {
      return std::make_unique<sgm::RuntimeDriver>(
          spec.sites, *function, NodeConfig(spec, seed, source, telemetry));
    };
  };

  std::vector<double> setups;
  RunTimings timings;
  CountTotals counts;
  const int traced_segments = TracedSegments(plan, spec.traced_slowdown);
  std::vector<std::vector<CycleRecord>> reference;  // traced segments only
  RunTimings untraced_subset;  // the traced segments' untraced timings
  for (int k = 0; k < plan.segments; ++k) {
    const std::uint64_t seed = SegmentSeed(options.seed, k);
    sgm::Telemetry telemetry;
    const bool subset = options.trace && k < traced_segments;
    CycleTimings segment(kHostReference);
    SegmentOutcome pass = RunSegment<sgm::RuntimeDriver>(
        spec, seed, cycles, *function, make_driver(seed, &telemetry),
        &segment);
    setups.push_back(pass.setup_s);
    report.attempted += cycles;
    counts.Add(pass);
    timings.AddSegment(segment, spec.sites);
    if (subset) untraced_subset.AddSegment(segment, spec.sites);
    if (subset) reference.push_back(std::move(pass.records));
  }
  for (int k = 0; static_cast<int>(setups.size()) < kMinSetups; ++k) {
    const std::uint64_t seed = SegmentSeed(options.seed, k);
    sgm::Telemetry telemetry;
    setups.push_back(RunSegment<sgm::RuntimeDriver>(
                         spec, seed, 0, *function,
                         make_driver(seed, &telemetry), nullptr)
                         .setup_s);
  }
  timings.Report(&report);
  counts.Report(&report);
  report.metrics["setup_s"] = Quantile(setups, 0.5);
  report.metrics["segments"] = plan.segments;

  if (report.metrics["fn_cycle_rate"] > sgm::RuntimeConfig{}.delta + 0.01) {
    report.Fail("fn_cycle_rate above delta + 0.01");
  }
  if (!options.trace) return report;

  // ── Traced segments ─────────────────────────────────────────────────────
  // One tracer and one set of totals across the traced segments; each
  // segment's deployment is kept until its counters are read.
  SpanTracer tracer(SpanNames(), options.smoke ? 4096 : 200000);
  RunTimings traced;
  TracedDeployment::Counters layer;  // summed per-segment deltas
  long coordinator_messages = 0;
  std::vector<double> samples;
  double trace_bytes = 0.0;
  for (int k = 0; k < traced_segments; ++k) {
    const std::uint64_t seed = SegmentSeed(options.seed, k);
    sgm::Telemetry telemetry;
    std::unique_ptr<TracedDeployment> deployment;
    CycleTimings segment(kHostReference);
    const SegmentOutcome pass = RunSegment<TracedDeployment>(
        spec, seed, cycles, *function,
        [&](const sgm::StreamSource& source) {
          return std::make_unique<TracedDeployment>(
              spec.sites, *function, NodeConfig(spec, seed, source, &telemetry),
              &tracer);
        },
        &segment, &deployment);
    traced.AddSegment(segment, spec.sites);
    report.attempted += cycles;
    if (const std::string diff = CompareRecords(reference[k], pass.records);
        !diff.empty()) {
      report.Fail("traced stack diverged from RuntimeDriver in segment " +
                  std::to_string(k) + ": " + diff);
    }
    const TracedDeployment::Counters& b = deployment->baseline();
    const TracedDeployment::Counters e = deployment->Snapshot();
    layer.acks += e.acks - b.acks;
    layer.heartbeats += e.heartbeats - b.heartbeats;
    layer.ball_tests += e.ball_tests - b.ball_tests;
    layer.ball_test_ns += e.ball_test_ns - b.ball_test_ns;
    layer.full_syncs += e.full_syncs - b.full_syncs;
    layer.full_sync_ns += e.full_sync_ns - b.full_sync_ns;
    layer.ht_folds += e.ht_folds - b.ht_folds;
    layer.ht_fold_ns += e.ht_fold_ns - b.ht_fold_ns;
    layer.telemetry_ns += e.telemetry_ns - b.telemetry_ns;
    layer.trace_events += e.trace_events - b.trace_events;
    coordinator_messages += deployment->coordinator_messages();
    for (double size : deployment->ProbeSampleSizes()) samples.push_back(size);
    trace_bytes += TraceBytes(telemetry.trace);
  }
  if (!options.spans_path.empty() && !tracer.WriteJsonl(options.spans_path)) {
    report.Fail("could not write spans to " + options.spans_path);
  }

  auto& m = report.metrics;
  const double n = static_cast<double>(cycles) * traced_segments;
  const auto self_ns = [&](int span) {
    const SpanTracer::Totals& t = tracer.totals(span);
    return t.calls > 0 ? t.self_ns / static_cast<double>(t.calls) : 0.0;
  };
  const auto per_cycle = [&](int span) {
    return static_cast<double>(tracer.totals(span).calls) / n;
  };
  const auto mean = [](double sum, long count) {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  };
  m["site_node.observe_ns"] = self_ns(kObserve);
  m["site_node.on_message_ns"] = self_ns(kSiteOnMessage);
  m["site_node.on_message_per_cycle"] = per_cycle(kSiteOnMessage);
  m["site_node.heartbeats_per_cycle"] =
      static_cast<double>(layer.heartbeats) / n;
  m["functions.ball_test_ns"] =
      mean(layer.ball_test_ns, layer.ball_tests);
  m["functions.ball_tests_per_cycle"] =
      static_cast<double>(layer.ball_tests) / n;
  m["coordinator_node.begin_cycle_ns"] = self_ns(kBeginCycle);
  m["coordinator_node.on_message_ns"] = self_ns(kCoordOnMessage);
  m["coordinator_node.messages_per_cycle"] =
      static_cast<double>(coordinator_messages) / n;
  m["coordinator_node.on_quiescent_ns"] = self_ns(kOnQuiescent);
  m["coordinator_node.full_sync_ns"] =
      mean(layer.full_sync_ns, layer.full_syncs);
  m["coordinator_node.probe_sample_size_p50"] = Quantile(samples, 0.5);
  m["coordinator_node.probe_sample_size_max"] = Quantile(samples, 1.0);
  m["coordinator_node.sqrt_n"] = std::sqrt(static_cast<double>(spec.sites));
  m["estimators.ht_fold_ns"] =
      mean(layer.ht_fold_ns, layer.ht_folds);
  m["reliable_transport.send_ns"] = self_ns(kReliableSend);
  m["reliable_transport.send_per_cycle"] = per_cycle(kReliableSend);
  m["reliable_transport.on_deliver_ns"] = self_ns(kReliableOnDeliver);
  m["reliable_transport.on_deliver_per_cycle"] = per_cycle(kReliableOnDeliver);
  m["reliable_transport.advance_round_ns"] = self_ns(kReliableAdvanceRound);
  m["reliable_transport.advance_round_per_cycle"] =
      per_cycle(kReliableAdvanceRound);
  m["reliable_transport.acks_per_cycle"] =
      static_cast<double>(layer.acks) / n;
  m["bus.send_ns"] = self_ns(kBusSend);
  m["bus.pop_ns"] = self_ns(kBusPop);
  m["bus.msgs_per_cycle"] = per_cycle(kBusPop);
  m["obs.publish_metrics_ns"] = self_ns(kPublishMetrics);
  m["obs.telemetry_ns_per_cycle"] =
      static_cast<double>(layer.telemetry_ns) / n;
  m["obs.trace_events_per_cycle"] =
      static_cast<double>(layer.trace_events) / n;
  m["obs.trace_bytes_per_cycle"] = trace_bytes / n;

  const SpanTracer::Totals& root = tracer.totals(kCycle);
  m["trace.unattributed_pct"] =
      root.total_ns > 0.0 ? 100.0 * root.self_ns / root.total_ns : 0.0;
  m["trace.span_cost_ns"] = tracer.span_cost_ns();
  m["trace.overhead_pct"] = OverheadPct(traced, untraced_subset);
  m["trace.spans_per_cycle"] =
      static_cast<double>(tracer.spans_recorded()) / n;
  return report;
}

}  // namespace perfbench

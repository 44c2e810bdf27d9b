#include "sim/stress.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <sstream>
#include <utility>

#include "core/check.h"
#include "core/rng.h"
#include "data/jester_like.h"
#include "runtime/checkpoint.h"
#include "functions/l2_norm.h"
#include "functions/linf_distance.h"
#include "gm/bgm.h"
#include "gm/cvsgm.h"
#include "gm/gm.h"
#include "gm/sgm.h"
#include "obs/telemetry.h"
#include "runtime/driver.h"
#include "sim/metrics.h"

namespace sgm {

namespace {

constexpr std::size_t kNumBuckets = 8;
constexpr std::size_t kWindow = 50;

// Sub-seed streams of one StressConfig seed (see DeriveSeed): the workload,
// the protocol's coins, the transport's fault lottery and the crash
// schedule never share a stream.
constexpr std::uint64_t kWorkloadStream = 101;
constexpr std::uint64_t kProtocolStream = 202;
constexpr std::uint64_t kTransportStream = 303;
constexpr std::uint64_t kCrashStream = 404;
constexpr std::uint64_t kCoordCrashStream = 505;
constexpr std::uint64_t kFdJitterStream = 606;
constexpr std::uint64_t kStallStream = 707;

JesterLikeConfig WorkloadConfig(const StressConfig& config) {
  JesterLikeConfig workload;
  workload.num_sites = config.num_sites;
  workload.window = kWindow;
  workload.num_buckets = kNumBuckets;
  workload.seed = DeriveSeed(config.seed, kWorkloadStream);
  return workload;
}

std::unique_ptr<MonitoredFunction> MakeFunction(StressFunction function) {
  switch (function) {
    case StressFunction::kL2Norm:
      return std::make_unique<L2Norm>(false);
    case StressFunction::kLinfDistance:
      return std::make_unique<LInfDistance>(Vector(kNumBuckets));
  }
  return nullptr;
}

/// The monitored threshold. The L∞ query re-anchors its reference at every
/// sync, so its natural scale is inter-sync histogram migration — the
/// proven value of the protocol-matrix tests. The plain L2 query is
/// absolute, so the threshold is placed at the median oracle value of a
/// deterministic pre-pass over the same workload seed: both sides of the
/// surface are then guaranteed to be visited.
double PickThreshold(const StressConfig& config) {
  if (config.function == StressFunction::kLinfDistance) return 5.0;
  JesterLikeGenerator source(WorkloadConfig(config));
  const auto function = MakeFunction(config.function);
  std::vector<Vector> locals;
  std::vector<double> values;
  values.reserve(config.cycles + 1);
  for (long t = 0; t <= config.cycles; ++t) {
    source.Advance(&locals);
    values.push_back(function->Value(Mean(locals)));
  }
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

bool IsExact(StressProtocol protocol) {
  return protocol == StressProtocol::kGm || protocol == StressProtocol::kBgm;
}

/// Resolves the invariant tolerances: explicit values win; otherwise exact
/// protocols tolerate nothing, approximate ones get their guarantee-class
/// zone (a few drift steps around the surface — the scale of the Bernstein
/// / McDiarmid ε at the operating point) and a self-correction horizon that
/// widens with message-loss severity (detection is retried every cycle, so
/// loss stretches it geometrically, not unboundedly).
InvariantOptions ResolveTolerances(const StressConfig& config,
                                   double max_step_norm) {
  InvariantOptions options;
  if (config.sabotage_tolerance) return options;  // zero/zero: trip on FN
  if (IsExact(config.protocol) && config.drop_probability == 0.0 &&
      config.crash_probability == 0.0 && config.corrupt_probability == 0.0) {
    return options;
  }
  options.zone_epsilon = config.zone_epsilon >= 0.0
                             ? config.zone_epsilon
                             : 3.0 * max_step_norm;
  if (config.max_out_of_zone_run >= 0) {
    options.max_out_of_zone_run = config.max_out_of_zone_run;
  } else {
    long run = 50;
    if (config.drop_probability > 0.0 || config.crash_probability > 0.0 ||
        config.corrupt_probability > 0.0 || config.max_delay_rounds > 0 ||
        config.stall_probability > 0.0) {
      run = 150;  // faults delay detection but never disable it
    }
    if (config.coord_crash_probability > 0.0) {
      run = 200;  // coordinator downtime stalls detection entirely
    }
    options.max_out_of_zone_run = run;
  }
  return options;
}

std::unique_ptr<ProtocolBase> MakeProtocol(const StressConfig& config,
                                           const MonitoredFunction& function,
                                           double threshold,
                                           double max_step_norm) {
  switch (config.protocol) {
    case StressProtocol::kGm:
      return std::make_unique<GeometricMonitor>(function, threshold,
                                                max_step_norm);
    case StressProtocol::kBgm:
      return std::make_unique<BalancedGeometricMonitor>(function, threshold,
                                                        max_step_norm);
    case StressProtocol::kSgm: {
      SgmOptions options;
      options.seed = DeriveSeed(config.seed, kProtocolStream);
      return std::make_unique<SamplingGeometricMonitor>(function, threshold,
                                                        max_step_norm,
                                                        options);
    }
    case StressProtocol::kCvsgm: {
      CvsgmOptions options;
      options.seed = DeriveSeed(config.seed, kProtocolStream);
      return std::make_unique<CvSamplingMonitor>(function, threshold,
                                                 max_step_norm, options);
    }
  }
  return nullptr;
}

/// Builds the optional accuracy auditor for a leg: inherits the invariant
/// checker's resolved tolerances unless the config overrides them (the
/// override path is the negative test — epsilon 0 / run 0 must fire).
std::unique_ptr<AccuracyAuditor> MakeAuditor(
    const StressConfig& config, const InvariantOptions& tolerances) {
  if (!config.audit) return nullptr;
  AccuracyAuditorConfig auditor;
  auditor.epsilon = config.audit_epsilon >= 0.0 ? config.audit_epsilon
                                                : tolerances.zone_epsilon;
  auditor.max_out_of_zone_run = config.audit_max_run >= 0
                                    ? config.audit_max_run
                                    : tolerances.max_out_of_zone_run;
  auditor.telemetry = config.telemetry;
  return std::make_unique<AccuracyAuditor>(auditor);
}

void FillReport(const InvariantChecker& checker, const StressConfig& config,
                const std::string& leg, StressReport* report) {
  report->config = config;
  report->leg = leg;
  report->violations = checker.violations();
  report->max_observed_run = checker.max_observed_run();
  if (!report->ok()) {
    report->replay_command = FormatReplayCommand(config, leg);
  }
}

}  // namespace

const char* ToString(StressProtocol protocol) {
  switch (protocol) {
    case StressProtocol::kGm: return "GM";
    case StressProtocol::kBgm: return "BGM";
    case StressProtocol::kSgm: return "SGM";
    case StressProtocol::kCvsgm: return "CVSGM";
  }
  return "?";
}

const char* ToString(StressFunction function) {
  switch (function) {
    case StressFunction::kL2Norm: return "l2";
    case StressFunction::kLinfDistance: return "linf";
  }
  return "?";
}

bool ParseStressProtocol(const std::string& text, StressProtocol* out) {
  for (StressProtocol p : {StressProtocol::kGm, StressProtocol::kBgm,
                           StressProtocol::kSgm, StressProtocol::kCvsgm}) {
    if (text == ToString(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

bool ParseStressFunction(const std::string& text, StressFunction* out) {
  for (StressFunction f :
       {StressFunction::kL2Norm, StressFunction::kLinfDistance}) {
    if (text == ToString(f)) {
      *out = f;
      return true;
    }
  }
  return false;
}

std::string FormatReplayCommand(const StressConfig& config,
                                const std::string& leg) {
  std::ostringstream out;
  out << "dst_stress --leg=" << leg << " --protocol="
      << ToString(config.protocol) << " --function="
      << ToString(config.function) << " --seed=" << config.seed
      << " --sites=" << config.num_sites << " --cycles=" << config.cycles;
  if (config.drop_probability > 0.0) {
    out << " --drop=" << config.drop_probability;
  }
  if (config.duplicate_probability > 0.0) {
    out << " --dup=" << config.duplicate_probability;
  }
  if (config.max_delay_rounds > 0) {
    out << " --delay=" << config.max_delay_rounds;
  }
  if (config.corrupt_probability > 0.0) {
    out << " --corrupt=" << config.corrupt_probability;
  }
  if (config.crash_probability > 0.0) {
    out << " --crash=" << config.crash_probability;
  }
  if (config.coord_crash_probability > 0.0) {
    out << " --coord-crash=" << config.coord_crash_probability
        << " --coord-down=" << config.max_coord_crash_cycles;
  }
  if (config.stall_probability > 0.0) {
    out << " --stall=" << config.stall_probability
        << " --stall-cycles=" << config.max_stall_cycles;
  }
  if (config.sabotage_tolerance) out << " --sabotage";
  if (config.audit) out << " --audit";
  return out.str();
}

std::string StressReport::Summary() const {
  std::ostringstream out;
  out << leg << " " << ToString(config.protocol) << "/"
      << ToString(config.function) << " seed=" << config.seed << ": ";
  if (ok()) {
    out << "OK (" << cycles << " cycles, " << fn_cycles << " FN cycles, "
        << full_syncs << " full syncs, " << degraded_syncs
        << " degraded, max disagreement run " << max_observed_run;
    if (leg == "runtime") {
      out << ", " << retransmissions << " retransmits, " << rejoins_granted
          << " rejoins, " << stale_epoch_drops << " stale drops";
      if (config.coord_crash_probability > 0.0) {
        out << ", " << coordinator_crashes << " coord crashes ("
            << wal_records_replayed << " WAL replays, "
            << snapshots_discarded << " snapshot fallbacks)";
      }
      if (config.stall_probability > 0.0) {
        out << ", " << degraded_cycles << " degraded cycles, "
            << lag_quarantines << " lag quarantines";
      }
    }
    if (config.audit) {
      out << "; audit TP=" << audit.true_positives
          << " FP=" << audit.false_positives
          << " FN=" << audit.false_negatives
          << " TN=" << audit.true_negatives
          << " oz-FN-rate=" << audit.fn_rate()
          << " max|err|=" << audit.max_abs_error
          << " bound-violations=" << audit.bound_violations;
      if (audit.degraded_cycles > 0) {
        out << " degraded-oz-FN="
            << audit.degraded_out_of_zone_false_negatives << "/"
            << audit.degraded_cycles;
      }
    }
    out << ")\n";
    return out.str();
  }
  out << violations.size() << " invariant violation(s)\n";
  for (const InvariantViolation& v : violations) {
    out << "  [" << v.invariant << "] cycle " << v.cycle << ": " << v.details
        << "\n";
  }
  out << "  replay: " << replay_command << "\n";
  return out.str();
}

StressReport RunSimStress(const StressConfig& config) {
  SGM_CHECK(config.cycles > 0 && config.num_sites > 0);
  StressReport report;
  const double threshold = PickThreshold(config);
  JesterLikeGenerator source(WorkloadConfig(config));
  const auto function = MakeFunction(config.function);
  auto protocol =
      MakeProtocol(config, *function, threshold, source.max_step_norm());
  protocol->set_drift_norm_cap(source.max_drift_norm());
  protocol->set_telemetry(config.telemetry);
  if (config.telemetry != nullptr) {
    // Sim protocols are transportless and spanless, so only the noise-class
    // sampling applies here; the rate is plumbed for parity with the
    // runtime leg.
    config.telemetry->trace.ConfigureSampling(
        config.trace_sample_rate, DeriveSeed(config.seed, kProtocolStream));
    config.telemetry->trace.Emit(TraceEventId::kRunBegin, -1);
  }

  const InvariantOptions tolerances =
      ResolveTolerances(config, source.max_step_norm());
  InvariantChecker checker(tolerances);
  std::unique_ptr<AccuracyAuditor> auditor = MakeAuditor(config, tolerances);
  Metrics metrics;
  std::vector<Vector> locals;
  source.Advance(&locals);
  protocol->Initialize(locals, &metrics);

  Vector mean(locals.front().dim());
  for (long t = 1; t <= config.cycles; ++t) {
    source.Advance(&locals);
    const CycleOutcome outcome = protocol->OnCycle(locals, &metrics);

    // Lock-step oracle: the exact global average, evaluated through the
    // protocol's own (possibly re-anchored) function instance.
    mean.SetZero();
    for (const Vector& v : locals) mean += v;
    mean /= static_cast<double>(locals.size());
    const double truth_value = protocol->function().Value(mean);
    const bool truth_above = truth_value > protocol->threshold();
    const double surface_distance =
        protocol->function().DistanceToSurface(mean, protocol->threshold());

    checker.CheckBelief(t, protocol->BelievesAbove(), truth_above,
                        surface_distance);
    if (outcome.full_sync) {
      checker.CheckPostSyncExact(t, protocol->BelievesAbove(), truth_above);
    }
    checker.CheckAccounting(t, metrics.site_messages(),
                            metrics.coordinator_messages(),
                            metrics.total_messages(), metrics.total_bytes());
    if (truth_above != protocol->BelievesAbove()) ++report.fn_cycles;

    if (auditor != nullptr) {
      AccuracyAuditor::CycleSample sample;
      sample.cycle = t;
      sample.believed_above = protocol->BelievesAbove();
      sample.truth_above = truth_above;
      sample.estimate_value = protocol->function().Value(protocol->estimate());
      sample.truth_value = truth_value;
      sample.surface_distance = surface_distance;
      // Sim protocols are transportless — no span to attribute.
      auditor->ObserveCycle(sample);
    }

    // Windowed time-series export (the runtime legs sample from the driver;
    // transportless sim legs sample here, after the audit observed t).
    if (config.telemetry != nullptr && config.telemetry->series) {
      metrics.PublishTo(&config.telemetry->registry);
      config.telemetry->series->Sample(t, config.telemetry->registry);
    }
  }

  report.cycles = config.cycles;
  report.full_syncs = metrics.full_syncs();
  if (auditor != nullptr) report.audit = auditor->report();
  if (config.telemetry != nullptr) {
    metrics.PublishTo(&config.telemetry->registry);
  }
  FillReport(checker, config, "sim", &report);
  return report;
}

namespace {

/// Shared scaffolding of the runtime legs: drives a RuntimeDriver over the
/// seeded workload with an optional fault schedule, feeding the checker
/// each cycle. The oracle freezes crashed sites' vectors.
struct RuntimeLeg {
  explicit RuntimeLeg(const StressConfig& config)
      : config_(config),
        threshold_(PickThreshold(config)),
        source_(WorkloadConfig(config)),
        function_(MakeFunction(config.function)),
        crash_rng_(DeriveSeed(config.seed, kCrashStream)),
        coord_rng_(DeriveSeed(config.seed, kCoordCrashStream)),
        stall_rng_(DeriveSeed(config.seed, kStallStream)),
        recovery_cycle_(config.num_sites, -1),
        stall_until_(config.num_sites, -1) {}

  RuntimeConfig NodeConfig() const {
    RuntimeConfig node;
    node.threshold = threshold_;
    node.max_step_norm = source_.max_step_norm();
    node.drift_norm_cap = source_.max_drift_norm();
    node.seed = DeriveSeed(config_.seed, kProtocolStream);
    node.telemetry = config_.telemetry;
    node.trace_sample_rate = config_.trace_sample_rate;
    if (config_.coord_crash_probability > 0.0) {
      node.checkpoint_store = &checkpoint_store_;
      node.checkpoint_interval_cycles = 20;
      // Desynchronized failure-detector thresholds: the crash legs are where
      // whole-fleet silence (a dead coordinator) would otherwise march every
      // site through suspect → dead in lock step.
      node.failure_detector.threshold_jitter = 0.2;
      node.failure_detector.jitter_seed =
          DeriveSeed(config_.seed, kFdJitterStream);
    }
    return node;
  }

  SimTransportConfig TransportConfig() const {
    SimTransportConfig transport;
    transport.seed = DeriveSeed(config_.seed, kTransportStream);
    transport.drop_probability = config_.drop_probability;
    transport.duplicate_probability = config_.duplicate_probability;
    transport.max_delay_rounds = config_.max_delay_rounds;
    transport.corrupt_probability = config_.corrupt_probability;
    return transport;
  }

  /// Crash/recovery schedule for one cycle; deterministic in the seed and
  /// bounded: at most a quarter of the fleet down, every crash expires.
  void StepCrashSchedule(RuntimeDriver* driver, long cycle) {
    SimTransport* sim = driver->sim_transport();
    if (sim == nullptr || config_.crash_probability <= 0.0) return;
    int crashed = 0;
    for (int i = 0; i < config_.num_sites; ++i) {
      if (!sim->IsCrashed(i)) continue;
      if (stall_until_[i] >= 0) continue;  // the stall schedule owns it
      if (recovery_cycle_[i] <= cycle) {
        sim->RecoverSite(i);
      } else {
        ++crashed;
      }
    }
    if (crash_rng_.NextBernoulli(config_.crash_probability) &&
        crashed < std::max(1, config_.num_sites / 4)) {
      const int victim = static_cast<int>(
          crash_rng_.NextBounded(static_cast<std::uint64_t>(
              config_.num_sites)));
      if (!sim->IsCrashed(victim)) {
        sim->CrashSite(victim);
        recovery_cycle_[victim] =
            cycle + 1 +
            static_cast<long>(crash_rng_.NextBounded(
                static_cast<std::uint64_t>(config_.max_crash_cycles)));
      }
    }
  }

  /// Stall schedule for one cycle, pre-tick: a stalled site is silenced
  /// through the sim's crash switch (state kept, messages dropped — exactly
  /// what a SIGSTOP'd process looks like from the outside) and listed in
  /// `stalled` so the post-tick ReportBarrierLag call feeds the
  /// deadline-miss path. Bounded like the crash schedule: at most a quarter
  /// of the fleet stalled, every stall expires.
  void StepStallSchedule(RuntimeDriver* driver, long cycle,
                         std::vector<int>* stalled) {
    SimTransport* sim = driver->sim_transport();
    if (sim == nullptr || config_.stall_probability <= 0.0) return;
    int stalled_now = 0;
    for (int i = 0; i < config_.num_sites; ++i) {
      if (stall_until_[i] < 0) continue;
      if (stall_until_[i] < cycle) {
        sim->RecoverSite(i);
        stall_until_[i] = -1;
      } else {
        ++stalled_now;
      }
    }
    if (stall_rng_.NextBernoulli(config_.stall_probability) &&
        stalled_now < std::max(1, config_.num_sites / 4)) {
      const int victim = static_cast<int>(stall_rng_.NextBounded(
          static_cast<std::uint64_t>(config_.num_sites)));
      if (!sim->IsCrashed(victim)) {
        sim->CrashSite(victim);
        stall_until_[victim] =
            cycle + static_cast<long>(stall_rng_.NextBounded(
                        static_cast<std::uint64_t>(config_.max_stall_cycles)));
      }
    }
    for (int i = 0; i < config_.num_sites; ++i) {
      if (stall_until_[i] >= 0) stalled->push_back(i);
    }
  }

  /// Coordinator crash/recovery schedule for one cycle, pre-tick. Crashes
  /// are 50/50 immediate (cycle boundary) vs armed (fires inside the next
  /// delivery burst, i.e. mid-cascade); downtime is bounded. Recovery first
  /// injects seeded storage faults — a torn WAL tail, and (when an older
  /// snapshot still exists) a torn newest snapshot — then computes the
  /// oracle reconstruction BEFORE recovering, and hands both to
  /// `coord_recovery_hook_` for invariant verification.
  void StepCoordCrashSchedule(RuntimeDriver* driver, long cycle) {
    if (config_.coord_crash_probability <= 0.0) return;
    if (driver->coordinator_down()) {
      if (coord_recover_cycle_ < 0) {
        // An armed crash fired inside the previous tick: start the outage
        // clock now.
        coord_recover_cycle_ = cycle + armed_downtime_;
        return;
      }
      if (cycle < coord_recover_cycle_) return;
      if (coord_rng_.NextBernoulli(0.3)) {
        std::vector<std::uint8_t> garbage(
            1 + static_cast<std::size_t>(coord_rng_.NextBounded(24)));
        for (auto& byte : garbage) {
          byte = static_cast<std::uint8_t>(coord_rng_.NextBounded(256));
        }
        checkpoint_store_.AppendTornWalBytes(garbage);
      }
      if (coord_rng_.NextBernoulli(0.25)) {
        // Rename-on-write means at most the NEWEST snapshot can ever be
        // incomplete; tear it only when an older intact one exists to fall
        // back on (the previous newest may itself still be torn from an
        // earlier injection until checkpoint GC evicts it).
        const auto candidates = checkpoint_store_.Candidates();
        if (candidates.size() >= 2 &&
            DecodeSnapshot(candidates[1].snapshot).ok()) {
          checkpoint_store_.TearSnapshotTail(
              1 + static_cast<std::size_t>(coord_rng_.NextBounded(32)));
        }
      }
      Result<Reconstruction> expected =
          ReconstructCoordinatorState(checkpoint_store_);
      driver->RecoverCoordinator();
      coord_recover_cycle_ = -1;
      if (coord_recovery_hook_) coord_recovery_hook_(cycle, expected);
      return;
    }
    if (driver->crash_armed()) return;  // one pending crash at a time
    if (!coord_rng_.NextBernoulli(config_.coord_crash_probability)) return;
    const long downtime =
        1 + static_cast<long>(coord_rng_.NextBounded(
                static_cast<std::uint64_t>(config_.max_coord_crash_cycles)));
    if (coord_rng_.NextBernoulli(0.5)) {
      driver->CrashCoordinator();
      coord_recover_cycle_ = cycle + downtime;
    } else {
      driver->ArmCoordinatorCrash(
          1 + static_cast<long>(coord_rng_.NextBounded(8)));
      armed_downtime_ = downtime;
      coord_recover_cycle_ = -1;  // set when (and if) the armed crash fires
    }
  }

  /// Runs the leg, reporting each cycle through `per_cycle(cycle, driver)`
  /// after the tick has routed to quiescence.
  template <typename PerCycle>
  void Drive(RuntimeDriver* driver, PerCycle&& per_cycle) {
    std::vector<Vector> locals;
    source_.Advance(&locals);
    observed_ = locals;
    driver->Initialize(locals);
    std::vector<int> stalled;
    for (long t = 1; t <= config_.cycles; ++t) {
      StepCoordCrashSchedule(driver, t);
      StepCrashSchedule(driver, t);
      stalled.clear();
      StepStallSchedule(driver, t, &stalled);
      source_.Advance(&locals);
      SimTransport* sim = driver->sim_transport();
      for (int i = 0; i < config_.num_sites; ++i) {
        if (sim != nullptr && sim->IsCrashed(i)) continue;  // frozen
        observed_[i] = locals[i];
      }
      driver->Tick(observed_);
      // Mirror the socket server's barrier deadline: the cycle is over and
      // the stalled sites never acked. Gated on the stall profile so every
      // other leg stays byte-identical to the pre-deadline harness.
      if (config_.stall_probability > 0.0) {
        driver->ReportBarrierLag(stalled);
      }
      per_cycle(t, *driver);
    }
  }

  struct Oracle {
    bool above = false;
    double value = 0.0;  ///< f(v), the exact function value
    double surface_distance = 0.0;
  };

  /// The lock-step oracle: exact mean of what the sites currently hold,
  /// evaluated through `function_` — which RunRuntimeStress re-anchors in
  /// step with the coordinator, mirroring every node's own clone.
  Oracle Truth() const {
    Vector mean(observed_.front().dim());
    for (const Vector& v : observed_) mean += v;
    mean /= static_cast<double>(observed_.size());
    Oracle oracle;
    oracle.value = function_->Value(mean);
    oracle.above = oracle.value > threshold_;
    oracle.surface_distance = function_->DistanceToSurface(mean, threshold_);
    return oracle;
  }

  const StressConfig config_;
  const double threshold_;
  JesterLikeGenerator source_;
  std::unique_ptr<MonitoredFunction> function_;
  Rng crash_rng_;
  Rng coord_rng_;
  Rng stall_rng_;
  std::vector<long> recovery_cycle_;
  /// Last cycle (inclusive) each site stays stalled; -1 = not stalled.
  std::vector<long> stall_until_;
  std::vector<Vector> observed_;

  /// Coordinator-crash machinery (active iff coord_crash_probability > 0).
  /// NodeConfig() wires the store into the driver's coordinator; mutable
  /// because the leg object stays const-shaped for the parity leg.
  mutable InMemoryCheckpointStore checkpoint_store_;
  long coord_recover_cycle_ = -1;
  long armed_downtime_ = 1;
  /// Invoked right after a recovery with the pre-recovery oracle
  /// reconstruction; RunRuntimeStress verifies the recovery invariants here.
  std::function<void(long cycle, const Result<Reconstruction>& expected)>
      coord_recovery_hook_;
};

}  // namespace

StressReport RunRuntimeStress(const StressConfig& config) {
  SGM_CHECK(config.protocol == StressProtocol::kSgm);
  StressReport report;
  RuntimeLeg leg(config);
  if (config.telemetry != nullptr) {
    config.telemetry->trace.Emit(TraceEventId::kRunBegin, -1);
  }

  RuntimeDriver driver(config.num_sites, *leg.function_, leg.NodeConfig(),
                       leg.TransportConfig());
  // The runtime anchors its own clones; mirror the anchoring on the oracle's
  // instance by re-anchoring whenever the coordinator's sync count moves.
  long seen_full_syncs = 0;

  const InvariantOptions tolerances =
      ResolveTolerances(config, leg.source_.max_step_norm());
  InvariantChecker checker(tolerances);
  std::unique_ptr<AccuracyAuditor> auditor = MakeAuditor(config, tolerances);
  long prev_full = 0, prev_degraded = 0;
  // Deadline-degraded barrier cycles (CoordinatorNode::degraded_cycles is
  // observability state, not checkpointed — the hook below re-bases it).
  long prev_degraded_cycles = 0;

  // Rejoin-convergence tracking: a crashed-and-recovered site must hold an
  // anchor at least as fresh as its recovery epoch within this horizon
  // (covers the grant handshake plus retries under 30% loss; a quarantined
  // flapper's horizon starts when its quarantine ends).
  constexpr long kRejoinHorizon = 40;
  std::vector<bool> prev_crashed(config.num_sites, false);
  std::vector<long> rejoin_deadline(config.num_sites, -1);
  std::vector<long> recovered_at(config.num_sites, -1);
  std::vector<std::int64_t> epoch_needed(config.num_sites, 0);

  // Coordinator-recovery invariants. The hook fires right after each
  // recovery with the oracle reconstruction computed from the same store
  // BEFORE the coordinator recovered; the reconvergence deadline then
  // requires a completed full sync within the horizon (generous: covers the
  // scheduled resync plus retries under the hostile fault profiles).
  constexpr long kRecoveryHorizon = 60;
  long recovery_deadline = -1;
  long recovery_recovered_at = -1;
  long full_at_recovery = 0;
  leg.coord_recovery_hook_ = [&](long t,
                                 const Result<Reconstruction>& expected) {
    const CoordinatorNode& coord = driver.coordinator();
    checker.CheckRecoveryEpoch(t, driver.last_crash_epoch(), coord.epoch());
    if (!expected.ok()) {
      checker.CheckRecoveryState(
          t, false,
          "oracle reconstruction failed but recovery succeeded: " +
              expected.status().message());
    } else {
      const CoordinatorCheckpoint& s = expected.ValueOrDie().state;
      std::string mismatch;
      if (coord.epoch() != s.epoch + 1) {
        mismatch = "epoch";
      } else if (!(coord.estimate() == s.estimate)) {
        mismatch = "estimate";
      } else if (coord.BelievesAbove() != s.believes_above) {
        mismatch = "believes_above";
      } else if (coord.epsilon_T() != s.epsilon_t) {
        mismatch = "epsilon_t";
      } else if (coord.full_syncs() != s.full_syncs) {
        mismatch = "full_syncs";
      } else if (coord.partial_resolutions() != s.partial_resolutions) {
        mismatch = "partial_resolutions";
      } else if (coord.degraded_syncs() != s.degraded_syncs) {
        mismatch = "degraded_syncs";
      }
      checker.CheckRecoveryState(
          t, mismatch.empty(),
          mismatch.empty()
              ? ""
              : "recovered coordinator diverges from the oracle "
                "reconstruction at field " +
                    mismatch);
    }
    recovery_recovered_at = t;
    recovery_deadline = t + kRecoveryHorizon;
    full_at_recovery = coord.full_syncs();
    // Re-base the sync counters on the restored ones. The hook runs before
    // this cycle's tick, so a sync completed inside the recovery itself ran
    // on the previous cycle's vectors (like the initialization sync) and
    // has no exact truth to meet; any sync of the tick still counts.
    prev_full = coord.full_syncs();
    prev_degraded = coord.degraded_syncs();
    prev_degraded_cycles = coord.degraded_cycles();  // fresh incarnation: 0
  };

  leg.Drive(&driver, [&](long t, RuntimeDriver& d) {
    if (d.coordinator_down()) {
      // Accounting stays cumulative and checkable; everything that reads
      // the coordinator pauses. Deadlines stretch by the downtime (no
      // handshake can progress), and a site recovering while the
      // coordinator is down gets its epoch requirement resolved at the
      // first up cycle (sentinel -1). Cumulative epoch-fencing counters are
      // re-checked on the next up cycle, so nothing is lost by skipping.
      const SimTransport* sim = d.sim_transport();
      checker.CheckAccounting(
          t, sim->site_messages_sent(),
          sim->messages_sent() - sim->site_messages_sent(),
          sim->messages_sent(), sim->bytes_sent());
      for (int i = 0; i < config.num_sites; ++i) {
        const bool crashed = sim->IsCrashed(i);
        if (crashed) {
          rejoin_deadline[i] = -1;
        } else if (prev_crashed[i]) {
          rejoin_deadline[i] = t + kRejoinHorizon;
          recovered_at[i] = t;
          epoch_needed[i] = -1;
        } else if (rejoin_deadline[i] >= 0) {
          ++rejoin_deadline[i];
        }
        prev_crashed[i] = crashed;
      }
      if (recovery_deadline >= 0) ++recovery_deadline;
      return;
    }
    // Re-anchor the oracle's function to the coordinator's fresh estimate
    // before evaluating truth, exactly as every node re-anchored.
    if (d.coordinator().full_syncs() > seen_full_syncs) {
      seen_full_syncs = d.coordinator().full_syncs();
      leg.function_->OnSync(d.coordinator().estimate());
    }
    const RuntimeLeg::Oracle oracle = leg.Truth();

    checker.CheckBelief(t, d.coordinator().BelievesAbove(), oracle.above,
                        oracle.surface_distance);
    const long full = d.coordinator().full_syncs();
    const long degraded = d.coordinator().degraded_syncs();
    // The initialization sync (full == 1 at t == 1) completed inside
    // Initialize() with the pre-loop vectors, one observation behind this
    // cycle's oracle — comparing it against t == 1 truth would falsely fire
    // whenever the mean crosses the threshold on the very first step.
    if (full == prev_full + 1 && degraded == prev_degraded &&
        !(t == 1 && full == 1)) {
      checker.CheckPostSyncExact(t, d.coordinator().BelievesAbove(),
                                 oracle.above);
    }
    prev_full = full;
    prev_degraded = degraded;

    const SimTransport* sim = d.sim_transport();
    checker.CheckAccounting(
        t, sim->site_messages_sent(),
        sim->messages_sent() - sim->site_messages_sent(),
        sim->messages_sent(), sim->bytes_sent());
    if (oracle.above != d.coordinator().BelievesAbove()) ++report.fn_cycles;

    if (auditor != nullptr) {
      AccuracyAuditor::CycleSample sample;
      sample.cycle = t;
      sample.believed_above = d.coordinator().BelievesAbove();
      sample.truth_above = oracle.above;
      sample.estimate_value = leg.function_->Value(d.coordinator().estimate());
      sample.truth_value = oracle.value;
      sample.surface_distance = oracle.surface_distance;
      sample.span = d.coordinator().cycle_span();
      sample.degraded =
          d.coordinator().degraded_cycles() != prev_degraded_cycles;
      auditor->ObserveCycle(sample);
    }
    prev_degraded_cycles = d.coordinator().degraded_cycles();

    // Epoch-fencing invariant: no stale-epoch message ever reaches an
    // apply path, anywhere in the deployment.
    long stale_applied = d.coordinator().audit().stale_epoch_applied;
    for (int i = 0; i < config.num_sites; ++i) {
      stale_applied += d.site(i).audit().stale_epoch_applied;
    }
    checker.CheckEpochFencing(t, stale_applied);

    // Rejoin-convergence invariant.
    for (int i = 0; i < config.num_sites; ++i) {
      const bool crashed = sim->IsCrashed(i);
      if (crashed) {
        rejoin_deadline[i] = -1;  // re-crashed: re-armed at next recovery
      } else if (prev_crashed[i]) {
        rejoin_deadline[i] = t + kRejoinHorizon;
        recovered_at[i] = t;
        epoch_needed[i] = d.coordinator().epoch();
      }
      prev_crashed[i] = crashed;
      if (rejoin_deadline[i] < 0) continue;
      if (epoch_needed[i] < 0) epoch_needed[i] = d.coordinator().epoch();
      if (d.site(i).anchored() && d.site(i).epoch() >= epoch_needed[i]) {
        rejoin_deadline[i] = -1;  // converged
      } else if (d.coordinator().failure_detector().IsQuarantined(i)) {
        // A flapper's rejoin is legitimately deferred: its horizon starts
        // when the quarantine ends.
        rejoin_deadline[i] = t + kRejoinHorizon;
      } else if (t >= rejoin_deadline[i]) {
        checker.CheckRejoinConvergence(t, i, recovered_at[i], false);
        rejoin_deadline[i] = -1;
      }
    }

    // Recovery reconvergence: a completed full sync clears the deadline.
    if (recovery_deadline >= 0) {
      if (d.coordinator().full_syncs() > full_at_recovery) {
        recovery_deadline = -1;
      } else if (t >= recovery_deadline) {
        checker.CheckRecoveryReconvergence(t, recovery_recovered_at, false);
        recovery_deadline = -1;
      }
    }
  });

  // A crash landing in the final cycles can leave the coordinator down at
  // the end of the run; recover so the end-of-run state reads below are
  // valid (and the last incarnation's recovery stats fold into the totals).
  if (driver.coordinator_down()) driver.RecoverCoordinator();

  report.cycles = config.cycles;
  report.full_syncs = driver.coordinator().full_syncs();
  report.degraded_syncs = driver.coordinator().degraded_syncs();
  report.retransmissions = driver.reliable_transport().stats().retransmissions;
  report.rejoins_granted = driver.coordinator().audit().rejoins_granted;
  report.stale_epoch_drops = driver.coordinator().audit().stale_epoch_drops;
  for (int i = 0; i < config.num_sites; ++i) {
    report.stale_epoch_drops += driver.site(i).audit().stale_epoch_drops;
  }
  report.coordinator_crashes = driver.coordinator_crashes();
  const CoordinatorNode::RecoveryStats recovery = driver.recovery_totals();
  report.wal_records_replayed = recovery.wal_records_replayed;
  report.snapshots_discarded = recovery.snapshots_discarded;
  report.degraded_cycles = driver.coordinator().degraded_cycles();
  report.lag_quarantines =
      driver.coordinator().failure_detector().total_lagging_verdicts();
  if (auditor != nullptr) report.audit = auditor->report();
  driver.PublishMetrics();
  FillReport(checker, config, "runtime", &report);
  return report;
}

StressReport RunTransportParity(const StressConfig& config) {
  SGM_CHECK(config.protocol == StressProtocol::kSgm);
  StressReport report;

  // Two independent but identically-seeded legs: same workload, same node
  // seeds, different transport wiring. Faults must be off — parity is the
  // faults-off conservation law.
  StressConfig faultless = config;
  faultless.drop_probability = 0.0;
  faultless.duplicate_probability = 0.0;
  faultless.max_delay_rounds = 0;
  faultless.crash_probability = 0.0;
  faultless.corrupt_probability = 0.0;
  // Two drivers share this process; attaching one telemetry context would
  // conflate their counters, so the parity leg runs untelemetered.
  faultless.telemetry = nullptr;

  RuntimeLeg leg(faultless);
  RuntimeDriver bus_driver(faultless.num_sites, *leg.function_,
                           leg.NodeConfig());
  RuntimeDriver sim_driver(faultless.num_sites, *leg.function_,
                           leg.NodeConfig(), leg.TransportConfig());

  InvariantChecker checker(InvariantOptions{});
  std::vector<Vector> locals;
  leg.source_.Advance(&locals);
  bus_driver.Initialize(locals);
  sim_driver.Initialize(locals);

  for (long t = 1; t <= faultless.cycles; ++t) {
    leg.source_.Advance(&locals);
    bus_driver.Tick(locals);
    sim_driver.Tick(locals);

    const InMemoryBus& bus = bus_driver.bus();
    const SimTransport& sim = *sim_driver.sim_transport();
    checker.CheckTransportParity(t, "InMemoryBus vs SimTransport",
                                 bus.messages_sent(), sim.messages_sent(),
                                 bus.site_messages_sent(),
                                 sim.site_messages_sent(), bus.bytes_sent(),
                                 sim.bytes_sent());
    checker.CheckTransportParity(
        t, "transport totals (acks included)", bus.transport_messages_sent(),
        sim.transport_messages_sent(), 0, 0, bus.transport_bytes_sent(),
        sim.transport_bytes_sent());
    // With faults off every ack lands in the round it was sent: the
    // reliability layer must never retransmit, and its overhead must stay
    // invisible to the paper-comparable counters (checked above — those
    // exclude control traffic by construction).
    checker.CheckTransportParity(
        t, "retransmissions under faultless wiring",
        bus_driver.reliable_transport().stats().retransmissions, 0,
        sim_driver.reliable_transport().stats().retransmissions, 0, 0.0, 0.0);
    if (bus_driver.coordinator().BelievesAbove() !=
            sim_driver.coordinator().BelievesAbove() ||
        bus_driver.coordinator().full_syncs() !=
            sim_driver.coordinator().full_syncs() ||
        !(bus_driver.coordinator().estimate() ==
          sim_driver.coordinator().estimate())) {
      checker.CheckTransportParity(
          t, "coordinator end-state diverged", 0, 1,
          bus_driver.coordinator().full_syncs(),
          sim_driver.coordinator().full_syncs(), 0.0, 0.0);
    }
  }

  report.cycles = faultless.cycles;
  report.full_syncs = bus_driver.coordinator().full_syncs();
  FillReport(checker, faultless, "parity", &report);
  return report;
}

std::vector<StressReport> RunStressSuite(std::uint64_t seed, bool audit,
                                         double coord_crash, int coord_down) {
  std::vector<StressReport> reports;

  // Sim legs: the full protocol × function matrix.
  int leg_index = 0;
  for (StressProtocol protocol :
       {StressProtocol::kGm, StressProtocol::kBgm, StressProtocol::kSgm,
        StressProtocol::kCvsgm}) {
    for (StressFunction function :
         {StressFunction::kL2Norm, StressFunction::kLinfDistance}) {
      StressConfig config;
      config.seed = DeriveSeed(seed, 1000 + leg_index++);
      config.protocol = protocol;
      config.function = function;
      config.audit = audit;
      reports.push_back(RunSimStress(config));
    }
  }

  // Runtime legs: the deployment shape under escalating fault profiles.
  struct FaultProfile {
    double drop, dup;
    int delay;
    double crash;
    double corrupt;
    double stall;
  };
  const FaultProfile profiles[] = {
      {0.0, 0.0, 0, 0.0, 0.0, 0.0},     // faultless baseline
      {0.15, 0.05, 2, 0.0, 0.0, 0.0},   // lossy, duplicating, reordering
      {0.25, 0.05, 3, 0.05, 0.0, 0.0},  // hostile links + site crash/recovery
      {0.30, 0.10, 3, 0.05, 0.02, 0.0}, // heavy loss+dup plus wire bit flips
      {0.0, 0.0, 0, 0.0, 0.0, 0.10},    // pure stragglers on clean links
      {0.15, 0.05, 2, 0.0, 0.0, 0.10},  // stragglers behind lossy links
  };
  for (StressFunction function :
       {StressFunction::kL2Norm, StressFunction::kLinfDistance}) {
    for (const FaultProfile& profile : profiles) {
      StressConfig config;
      config.seed = DeriveSeed(seed, 2000 + leg_index++);
      config.protocol = StressProtocol::kSgm;
      config.function = function;
      config.drop_probability = profile.drop;
      config.duplicate_probability = profile.dup;
      config.max_delay_rounds = profile.delay;
      config.crash_probability = profile.crash;
      config.corrupt_probability = profile.corrupt;
      config.stall_probability = profile.stall;
      config.coord_crash_probability = coord_crash;
      config.max_coord_crash_cycles = coord_down;
      config.audit = audit;
      reports.push_back(RunRuntimeStress(config));
    }
  }

  // Conservation across transport layers.
  StressConfig parity;
  parity.seed = DeriveSeed(seed, 3000);
  parity.protocol = StressProtocol::kSgm;
  reports.push_back(RunTransportParity(parity));

  return reports;
}

}  // namespace sgm

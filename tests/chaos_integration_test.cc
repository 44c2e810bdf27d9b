// End-to-end chaos harness over real processes and real TCP (CTest labels:
// chaos;integration): four fork()ed site processes run with the seeded
// network-chaos layer enabled (connection resets, stalls, half-open
// partitions), one site process is SIGKILLed mid-cycle and replaced, and the
// fork()ed coordinator process is SIGKILLed mid-run and restarted from its
// file-backed checkpoint store on the same port.
//
// The acceptance invariants, in the order they are checked:
//  * exact epoch fence — the recovery incarnation's epoch is the dead
//    incarnation's durably committed epoch plus one, judged against an
//    independent ReconstructCoordinatorState() of the store;
//  * field-level state match — estimate, belief, cycle and sync counters of
//    the recovered node equal the committed record, not an approximation;
//  * bounded reconvergence — the post-recovery window contains fresh full
//    syncs (the rejoin grants force resyncs) and ends with all sites
//    connected;
//  * accuracy under chaos — the per-cycle belief stream (last incarnation
//    wins for replayed cycles) audited against the generator-derived ground
//    truth stays within the paper's failure allowance: out-of-zone FN rate
//    ≤ δ + 0.01.
//
// Children never run gtest assertions: each invariant failure maps to a
// distinct _exit code (see the tables next to each *ProcessMain), surfaced
// by the parent's waitpid checks. fork() discipline as in
// process_integration_test: no threads exist in a forking process (the
// coordinator children Listen() and fork nothing; the parent forks before
// creating any server).
//
// Knobs: SGM_CHAOS_SEED seeds the fault schedules (default 1, swept by the
// CI chaos job); SGM_CHAOS_ARTIFACTS names a directory to keep the belief
// log, summary and checkpoint store for post-mortem (default: a fresh
// mkdtemp under TMPDIR).

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "data/synthetic.h"
#include "functions/l2_norm.h"
#include "obs/accuracy_auditor.h"
#include "obs/anomaly.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "obs/trace_merge.h"
#include "runtime/checkpoint.h"
#include "runtime/coordinator_server.h"
#include "runtime/site_client.h"
#include "sim/stress.h"

namespace sgm {
namespace {

constexpr int kSites = 4;
constexpr long kCycles = 120;       // last cycle index (0 = init sync)
constexpr long kCrashCycle = 50;    // coordinator SIGKILLs itself after this
constexpr long kSiteKillCycle = 30; // victim site SIGKILLs itself here
constexpr int kVictimSite = 2;
constexpr long kCheckpointInterval = 5;
// Cycles the recovered coordinator may run past kCycles, 2 ms apart, for a
// site still redialing at the end of the schedule to reconnect.
constexpr int kMaxSettleCycles = 500;

std::uint64_t SeedFromEnv() {
  const char* value = std::getenv("SGM_CHAOS_SEED");
  if (value == nullptr || *value == '\0') return 1;
  return static_cast<std::uint64_t>(std::strtoull(value, nullptr, 10));
}

/// Artifacts root: the operator-named directory when SGM_CHAOS_ARTIFACTS is
/// set (kept for upload), a fresh mkdtemp otherwise.
std::string ArtifactsDir() {
  const char* named = std::getenv("SGM_CHAOS_ARTIFACTS");
  if (named != nullptr && *named != '\0') {
    ::mkdir(named, 0755);  // fine if it already exists
    return named;
  }
  std::string tmpl = "/tmp/sgm-chaos-XXXXXX";
  const char* dir = ::mkdtemp(tmpl.data());
  SGM_CHECK(dir != nullptr);
  return dir;
}

SyntheticDriftConfig GeneratorConfig() {
  SyntheticDriftConfig config;
  config.num_sites = kSites;
  config.dim = 4;
  config.seed = 23;
  config.global_period = 60;
  // Strong mean reversion makes the states actually track the oscillating
  // anchors (the default 0.02 pull lags a period-60 drift almost entirely
  // away); the peak global norm then lands well above the threshold (3.0),
  // so the run crosses the surface several times and the FN audit below
  // judges real detections.
  config.mean_reversion = 0.2;
  config.global_amplitude = 6.0;
  return config;
}

RuntimeConfig ProtocolConfig() {
  SyntheticDriftGenerator probe(GeneratorConfig());
  RuntimeConfig config;
  config.threshold = 3.0;
  config.max_step_norm = probe.max_step_norm();
  config.drift_norm_cap = probe.max_drift_norm();
  config.seed = 7;
  return config;
}

// ─── Site processes ────────────────────────────────────────────────────────

/// Exit codes: 40 first connect gave up, 41 run ended dirty (reconnect
/// budget exhausted / unrecoverable failure). `self_kill_cycle >= 0` turns
/// the process into the SIGKILL victim: it dies mid-dispatch at that cycle,
/// leaving the coordinator a half-used connection.
[[noreturn]] void SiteProcessMain(int site_id, int port,
                                  std::uint64_t chaos_seed,
                                  long self_kill_cycle) {
  SyntheticDriftGenerator generator(GeneratorConfig());
  const L2Norm norm;
  SiteClientConfig config;
  config.site_id = site_id;
  config.num_sites = kSites;
  config.port = port;
  config.runtime = ProtocolConfig();
  // Generous dial budget: it must comfortably bridge the coordinator's
  // death → recovery window on a loaded CI box.
  config.runtime.socket_retry.max_attempts = 600;
  config.runtime.socket_retry.base_backoff_ms = 2;
  config.runtime.socket_retry.max_backoff_ms = 100;
  config.runtime.socket_retry.jitter_seed =
      DeriveSeed(chaos_seed, 900 + static_cast<std::uint64_t>(site_id));
  config.max_reconnects = 64;
  // The seeded fault schedule under test: sparse enough that cycles keep
  // completing, dense enough that every site reconnects a few times.
  config.chaos.seed =
      DeriveSeed(chaos_seed, 700 + static_cast<std::uint64_t>(site_id));
  config.chaos.reset_probability = 0.01;
  config.chaos.stall_probability = 0.02;
  config.chaos.stall_ms = 5;
  config.chaos.half_open_probability = 0.005;

  SiteClient client(norm, config);
  if (!client.Connect()) _exit(40);
  std::vector<Vector> locals;
  long advanced = 0;
  const bool clean = client.Run([&](long cycle) {
    if (self_kill_cycle >= 0 && cycle >= self_kill_cycle) {
      ::kill(::getpid(), SIGKILL);  // crash, not exit: no teardown at all
    }
    while (advanced <= cycle) {
      generator.Advance(&locals);
      ++advanced;
    }
    return locals[site_id];
  });
  if (!clean) _exit(41);
  _exit(0);
}

// ─── Coordinator processes ─────────────────────────────────────────────────

/// Appends one belief record per completed cycle: "cycle belief epoch f(v̂)".
void AppendBeliefLine(FILE* file, long cycle, const CoordinatorServer& server,
                      const L2Norm& norm) {
  std::fprintf(file, "%ld %d %lld %.17g\n", cycle,
               server.BelievesAbove() ? 1 : 0,
               static_cast<long long>(server.Epoch()),
               norm.Value(server.Estimate()));
  std::fflush(file);  // the line must survive the SIGKILL
}

/// First incarnation. Exit codes: 20 bind failed, 21 port pipe failed,
/// 22 hello timeout, 23 belief log unwritable, 24 barrier timeout,
/// 25 outlived its own crash point (the self-SIGKILL did not fire).
[[noreturn]] void CoordinatorProcessMain(int port_pipe, const std::string& dir,
                                         const std::string& beliefs_path) {
  const L2Norm norm;
  FileCheckpointStore store(dir);
  CoordinatorServerConfig config;
  config.num_sites = kSites;
  config.runtime = ProtocolConfig();
  config.runtime.checkpoint_store = &store;
  config.runtime.checkpoint_interval_cycles = kCheckpointInterval;
  CoordinatorServer server(norm, config);
  if (!server.Listen()) _exit(20);
  const int port = server.port();
  if (::write(port_pipe, &port, sizeof(port)) !=
      static_cast<ssize_t>(sizeof(port))) {
    _exit(21);
  }
  ::close(port_pipe);
  if (!server.WaitForSites()) _exit(22);
  FILE* beliefs = std::fopen(beliefs_path.c_str(), "a");
  if (beliefs == nullptr) _exit(23);
  for (long cycle = 0; cycle <= kCycles; ++cycle) {
    if (!server.RunCycle()) _exit(24);
    AppendBeliefLine(beliefs, cycle, server, norm);
    if (cycle == kCrashCycle) {
      // Crash-stop from inside: same SIGKILL death the parent would
      // inflict, but deterministically placed right after a commit —
      // checkpointed state and belief log agree on where the run died.
      ::kill(::getpid(), SIGKILL);
    }
  }
  _exit(25);
}

/// Recovery incarnation: restores from the store the dead one left behind
/// and finishes the schedule. Exit codes — recovery itself: 10 store
/// unreadable, 11 bind failed, 12 Recover() refused; exact fence / state
/// match: 13 epoch fence not committed+1, 14 resume cycle mismatch,
/// 15 estimate mismatch, 16 full-sync counter mismatch, 17 belief mismatch;
/// rest of the run: 18 hello timeout, 19 belief log unwritable, 26 barrier
/// timeout; reconvergence: 30 no fresh full sync after recovery, 31 not all
/// sites connected after the settle cycles; observability: 33 the anomaly detector never attributed an alert to
/// recovery.restores, 34 alerts sink unwritable.
[[noreturn]] void RecoveryProcessMain(int port, const std::string& dir,
                                      const std::string& beliefs_path,
                                      const std::string& summary_path,
                                      const std::string& alerts_path,
                                      std::uint64_t chaos_seed) {
  const L2Norm norm;
  FileCheckpointStore store(dir);
  // The online detector rides the recovery incarnation's per-cycle sample
  // stream: restoring from the checkpoint moves recovery.restores — a
  // zero-tolerance signal — so the regime shift must surface as an alert
  // on the restored incarnation's first completed cycle.
  Telemetry telemetry;
  telemetry.trace.SetProcess("coordinator");
  AnomalyDetectorConfig anomaly_config;
  anomaly_config.seed = chaos_seed;
  telemetry.EnableAnomalyDetection(anomaly_config);
  std::ofstream alerts_stream(alerts_path, std::ios::app);
  if (!alerts_stream) _exit(34);
  telemetry.anomaly->AttachStream(&alerts_stream);
  // Independent oracle read of what the dead incarnation durably committed,
  // taken before Recover() appends anything to the store.
  const Result<Reconstruction> committed = ReconstructCoordinatorState(store);
  if (!committed.ok()) _exit(10);
  const CoordinatorCheckpoint& state = committed.ValueOrDie().state;

  CoordinatorServerConfig config;
  config.port = port;  // the endpoint every surviving site keeps dialing
  config.num_sites = kSites;
  config.runtime = ProtocolConfig();
  config.runtime.checkpoint_store = &store;
  config.runtime.checkpoint_interval_cycles = kCheckpointInterval;
  config.runtime.telemetry = &telemetry;
  CoordinatorServer server(norm, config);
  if (!server.Listen()) _exit(11);
  if (!server.Recover()) _exit(12);

  if (server.Epoch() != state.epoch + 1) _exit(13);
  if (server.CyclesRun() - 1 != state.cycle) _exit(14);
  if (!(server.Estimate() == state.estimate)) _exit(15);
  if (server.FullSyncs() != state.full_syncs) _exit(16);
  if (server.BelievesAbove() != state.believes_above) _exit(17);

  if (!server.WaitForSites()) _exit(18);
  FILE* beliefs = std::fopen(beliefs_path.c_str(), "a");
  if (beliefs == nullptr) _exit(19);
  for (long cycle = server.CyclesRun(); cycle <= kCycles; ++cycle) {
    if (!server.RunCycle()) _exit(26);
    AppendBeliefLine(beliefs, cycle, server, norm);
  }
  // Settle: a site the chaos schedule reset in the last cycles may still
  // be redialing, and only a running cycle accepts its connection. These
  // cycles are outside the audited schedule, so they log no beliefs.
  for (int settle = 0;
       settle < kMaxSettleCycles && server.ConnectedCount() != kSites;
       ++settle) {
    if (!server.RunCycle()) _exit(26);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  FILE* summary = std::fopen(summary_path.c_str(), "w");
  if (summary != nullptr) {
    std::fprintf(summary,
                 "committed_epoch=%lld\nrecovered_epoch=%lld\n"
                 "committed_cycle=%ld\nfinal_cycle=%ld\n"
                 "committed_full_syncs=%ld\nfinal_full_syncs=%ld\n"
                 "site_disconnects=%ld\nsite_rehellos=%ld\n",
                 static_cast<long long>(state.epoch),
                 static_cast<long long>(server.Epoch()), state.cycle,
                 server.CyclesRun() - 1, state.full_syncs, server.FullSyncs(),
                 server.SiteDisconnects(), server.SiteRehellos());
    std::fclose(summary);
  }

  if (server.FullSyncs() <= state.full_syncs) _exit(30);
  if (server.ConnectedCount() != kSites) _exit(31);

  // Detector verdict: at least one alert, correctly attributed to the
  // restore counter (not merely any metric that happened to move).
  bool restore_attributed = false;
  for (const Alert& alert : telemetry.anomaly->alerts()) {
    if (alert.metric == "recovery.restores") restore_attributed = true;
  }
  if (!restore_attributed) _exit(33);

  server.Shutdown();
  _exit(0);
}

// ─── Straggler (SIGSTOP) leg ───────────────────────────────────────────────

constexpr long kStragglerCycles = 80;    // last cycle index of the leg
constexpr long kStragglerPaceMs = 40;    // coordinator pacing per cycle
constexpr long kStragglerDeadlineMs = 300;  // soft barrier deadline
constexpr long kStragglerFrozenCycles = 40;  // cycles run while it is frozen

/// Which site the parent SIGSTOPs, and after how many completed cycles:
/// both drawn from the chaos seed, so a seed sweep freezes different sites
/// at different points of the run. Freezing after 10–20 cycles leaves at
/// least 20 cycles after the SIGCONT for the quarantine to lift.
struct StragglerSchedule {
  int victim;
  long freeze_after;
};
StragglerSchedule StragglerScheduleFor(std::uint64_t chaos_seed) {
  Rng rng(DeriveSeed(chaos_seed, 61));
  StragglerSchedule schedule;
  schedule.victim = static_cast<int>(rng.NextBounded(kSites));
  schedule.freeze_after = 10 + static_cast<long>(rng.NextBounded(11));
  return schedule;
}

/// Deadline-driven coordinator for the SIGSTOP leg: paced cycles (so the
/// parent can stop/continue a site mid-run), a soft barrier deadline, and
/// end-of-run straggler invariants.
/// Exit codes: 60 bind failed, 61 port pipe failed, 62 hello timeout,
/// 63 belief log unwritable, 64 a cycle hit the HARD barrier timeout (the
/// stalled site blocked progress — the liveness property under test),
/// 65 no degraded cycle was recorded, 66 no lag quarantine was issued,
/// 67 a site is still quarantined at the end (no re-anchor), 68 not every
/// site connected at the end, 69 trace sink unwritable.
[[noreturn]] void StragglerCoordinatorMain(int port_pipe,
                                           const std::string& beliefs_path,
                                           const std::string& trace_path) {
  const L2Norm norm;
  Telemetry telemetry;
  telemetry.trace.SetProcess("coordinator");
  CoordinatorServerConfig config;
  config.num_sites = kSites;
  config.barrier_deadline_ms = kStragglerDeadlineMs;
  config.runtime = ProtocolConfig();
  config.runtime.telemetry = &telemetry;
  CoordinatorServer server(norm, config);
  if (!server.Listen()) _exit(60);
  const int port = server.port();
  if (::write(port_pipe, &port, sizeof(port)) !=
      static_cast<ssize_t>(sizeof(port))) {
    _exit(61);
  }
  ::close(port_pipe);
  if (!server.WaitForSites()) _exit(62);
  FILE* beliefs = std::fopen(beliefs_path.c_str(), "a");
  if (beliefs == nullptr) _exit(63);
  for (long cycle = 0; cycle <= kStragglerCycles; ++cycle) {
    // A false return is the 30 s hard backstop: with the soft deadline on,
    // reaching it means a stalled site DID block cycle progress.
    if (!server.RunCycle()) _exit(64);
    AppendBeliefLine(beliefs, cycle, server, norm);
    // Pace the schedule so the parent's SIGSTOP window spans many cycles.
    std::this_thread::sleep_for(std::chrono::milliseconds(kStragglerPaceMs));
  }
  const CoordinatorServer::Health health = server.GetHealth();
  if (health.degraded_cycles <= 0) _exit(65);
  if (health.lag_quarantines <= 0) _exit(66);
  if (health.lagging_sites != 0) _exit(67);
  if (server.ConnectedCount() != kSites) _exit(68);
  {
    std::ofstream out(trace_path);
    if (!out) _exit(69);
    telemetry.trace.WriteJsonl(out);
  }
  server.Shutdown();
  _exit(0);
}

/// Chaos-free site for the SIGSTOP leg; the victim's unresponsiveness is
/// inflicted externally by the parent. The victim writes its trace on clean
/// exit so the parent can merge both process timelines. Exit codes: 40
/// first connect gave up, 41 run ended dirty, 42 trace sink unwritable.
[[noreturn]] void StragglerSiteMain(int site_id, int port,
                                    const std::string& trace_path) {
  SyntheticDriftGenerator generator(GeneratorConfig());
  const L2Norm norm;
  Telemetry telemetry;
  telemetry.trace.SetProcess("site-" + std::to_string(site_id));
  SiteClientConfig config;
  config.site_id = site_id;
  config.num_sites = kSites;
  config.port = port;
  config.runtime = ProtocolConfig();
  if (!trace_path.empty()) config.runtime.telemetry = &telemetry;
  config.max_reconnects = 8;

  SiteClient client(norm, config);
  if (!client.Connect()) _exit(40);
  std::vector<Vector> locals;
  long advanced = 0;
  const bool clean = client.Run([&](long cycle) {
    while (advanced <= cycle) {
      generator.Advance(&locals);
      ++advanced;
    }
    return locals[site_id];
  });
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) _exit(42);
    telemetry.trace.WriteJsonl(out);
  }
  _exit(clean ? 0 : 41);
}

/// Counts complete (newline-terminated) lines of the belief log — the
/// parent's only window into how far the paced coordinator has progressed.
long CountBeliefLines(const std::string& path) {
  std::ifstream in(path);
  long lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines;
}

/// Polls the belief log until it holds at least `target` lines. Returns
/// false after ~60 s without progress to the target (deadlocked run).
bool AwaitBeliefLines(const std::string& path, long target) {
  for (int i = 0; i < 1200; ++i) {
    if (CountBeliefLines(path) >= target) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

// ─── Flight-recorder crash probe ───────────────────────────────────────────

/// Runs a short faultless runtime leg with the process-wide flight recorder
/// mirroring the trace, arms the fatal-signal dump and abort()s — the
/// abort-path equivalent of the SIGKILL deaths above (SIGKILL cannot be
/// caught, so the crash-dump contract is exercised on SIGABRT). The parent
/// asserts the dump parses and merges cleanly. Exit code 50: the leg
/// violated an invariant before the crash point.
[[noreturn]] void FlightProbeProcessMain(const std::string& dump_path,
                                         std::uint64_t chaos_seed) {
  Telemetry telemetry;
  telemetry.trace.SetProcess("flight-probe");
  FlightRecorder& ring = FlightRecorder::Instance();
  telemetry.trace.AttachFlightRecorder(&ring);
  ring.InstallCrashDump(dump_path);
  StressConfig stress;
  stress.seed = DeriveSeed(chaos_seed, 51);
  stress.num_sites = 8;
  stress.cycles = 15;  // the whole run fits in the ring: no torn-off spans
  stress.telemetry = &telemetry;
  if (!RunRuntimeStress(stress).ok()) _exit(50);
  std::abort();
}

// ─── The harness ───────────────────────────────────────────────────────────

struct BeliefRecord {
  bool above = false;
  long long epoch = 0;
  double estimate_value = 0.0;
};

/// Last-writer-wins per-cycle belief map: cycles between the last committed
/// checkpoint record and the crash are legitimately replayed by the
/// recovery incarnation, and its verdict is the deployment's final answer.
std::map<long, BeliefRecord> ReadBeliefLog(const std::string& path) {
  std::map<long, BeliefRecord> by_cycle;
  FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) return by_cycle;
  long cycle = 0;
  int above = 0;
  long long epoch = 0;
  double estimate_value = 0.0;
  while (std::fscanf(file, "%ld %d %lld %lg", &cycle, &above, &epoch,
                     &estimate_value) == 4) {
    by_cycle[cycle] = BeliefRecord{above != 0, epoch, estimate_value};
  }
  std::fclose(file);
  return by_cycle;
}

TEST(ChaosIntegrationTest, KilledCoordinatorAndSiteRecoverUnderSeededChaos) {
  const std::uint64_t chaos_seed = SeedFromEnv();
  const std::string artifacts = ArtifactsDir();
  const std::string checkpoint_dir = artifacts + "/checkpoints";
  ASSERT_EQ(::mkdir(checkpoint_dir.c_str(), 0755), 0) << checkpoint_dir;
  const std::string beliefs_path = artifacts + "/beliefs.txt";
  const std::string summary_path = artifacts + "/recovery-summary.txt";
  const std::string alerts_path = artifacts + "/alerts.jsonl";
  std::printf("chaos seed %llu, artifacts in %s\n",
              static_cast<unsigned long long>(chaos_seed), artifacts.c_str());

  int port_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0);
  const pid_t coordinator = fork();
  ASSERT_GE(coordinator, 0);
  if (coordinator == 0) {
    ::close(port_pipe[0]);
    CoordinatorProcessMain(port_pipe[1], checkpoint_dir, beliefs_path);
  }
  ::close(port_pipe[1]);
  int port = 0;
  ASSERT_EQ(::read(port_pipe[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  ::close(port_pipe[0]);
  ASSERT_GT(port, 0);

  std::vector<pid_t> sites(kSites);
  for (int id = 0; id < kSites; ++id) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      SiteProcessMain(id, port, chaos_seed,
                      id == kVictimSite ? kSiteKillCycle : -1);
    }
    sites[id] = pid;
  }

  // Fault 1: a site process dies by SIGKILL mid-cycle. The cycles keep
  // running against the shrunken membership; the replacement process joins
  // with the same site id (a re-hello), catches its deterministic stream up
  // and is re-anchored by the rejoin handshake.
  int status = 0;
  ASSERT_EQ(::waitpid(sites[kVictimSite], &status, 0), sites[kVictimSite]);
  ASSERT_TRUE(WIFSIGNALED(status)) << "victim site exited instead of dying";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  const pid_t replacement = fork();
  ASSERT_GE(replacement, 0);
  if (replacement == 0) {
    SiteProcessMain(kVictimSite, port, DeriveSeed(chaos_seed, 31), -1);
  }
  sites[kVictimSite] = replacement;

  // Fault 2: the coordinator crash-stops right after committing cycle 50.
  ASSERT_EQ(::waitpid(coordinator, &status, 0), coordinator);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "coordinator exited with code "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
      << " before its crash point";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  const pid_t recovery = fork();
  ASSERT_GE(recovery, 0);
  if (recovery == 0) {
    RecoveryProcessMain(port, checkpoint_dir, beliefs_path, summary_path,
                        alerts_path, chaos_seed);
  }
  ASSERT_EQ(::waitpid(recovery, &status, 0), recovery);
  ASSERT_TRUE(WIFEXITED(status)) << "recovery coordinator died by signal";
  ASSERT_EQ(WEXITSTATUS(status), 0)
      << "recovery-side invariant failed — code maps to the _exit table in "
         "RecoveryProcessMain; see " << summary_path;

  for (const pid_t pid : sites) {
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "site process died by signal";
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "site failed — code maps to the _exit table in SiteProcessMain";
  }

  // Anomaly artifact: the recovery incarnation's live alert stream names
  // the restore regime shift, and the file parses as JSONL with the fields
  // the runbook keys on.
  {
    std::ifstream alerts(alerts_path);
    ASSERT_TRUE(alerts.good()) << alerts_path;
    std::string line;
    bool restore_line = false;
    long alert_lines = 0;
    while (std::getline(alerts, line)) {
      if (line.empty()) continue;
      ++alert_lines;
      EXPECT_NE(line.find("\"cycle\":"), std::string::npos) << line;
      EXPECT_NE(line.find("\"kind\":"), std::string::npos) << line;
      if (line.find("\"metric\":\"recovery.restores\"") != std::string::npos) {
        restore_line = true;
      }
    }
    EXPECT_GE(alert_lines, 1L) << "detector stayed silent through a crash";
    EXPECT_TRUE(restore_line)
        << "no alert attributed to recovery.restores in " << alerts_path;
  }

  // Flight-recorder crash contract: a process that dies mid-run leaves a
  // postmortem dump. SIGKILL is uncatchable, so the probe dies the
  // abort-path way; the dump must validate line by line and merge into a
  // span forest with zero orphans attributable to the dump (the probe's
  // whole run fits inside the ring, so every parent span is in the window).
  {
    const std::string dump_path = artifacts + "/flight-abort.jsonl";
    std::remove(dump_path.c_str());
    const pid_t probe = fork();
    ASSERT_GE(probe, 0);
    if (probe == 0) {
      FlightProbeProcessMain(dump_path, chaos_seed);
    }
    ASSERT_EQ(::waitpid(probe, &status, 0), probe);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "flight probe exited with code "
        << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
        << " instead of crashing";
    EXPECT_EQ(WTERMSIG(status), SIGABRT);

    std::vector<TraceEvent> dumped;
    std::string warning;
    const Status loaded = LoadTraceJsonlTolerant(
        dump_path, "flight-probe", /*validate=*/true, &dumped, &warning);
    ASSERT_TRUE(loaded.ok()) << loaded.message();
    EXPECT_TRUE(warning.empty()) << warning;
    ASSERT_FALSE(dumped.empty()) << "crash dump is empty: " << dump_path;
    const SpanForestSummary forest =
        SummarizeSpanForest(MergeTraceTimelines({std::move(dumped)}));
    EXPECT_GT(forest.spans, 0L) << "dump window carries no cascade spans";
    EXPECT_TRUE(forest.orphans.empty())
        << "crash dump introduced orphan spans: " << forest.orphans.front();
  }

  // Every cycle of the schedule has a final verdict despite both crashes.
  const std::map<long, BeliefRecord> beliefs = ReadBeliefLog(beliefs_path);
  ASSERT_EQ(beliefs.size(), static_cast<std::size_t>(kCycles) + 1);
  ASSERT_EQ(beliefs.begin()->first, 0);
  ASSERT_EQ(beliefs.rbegin()->first, kCycles);

  // Accuracy gate: audit the stitched belief stream against the
  // generator-derived ground truth. The ε zone is a fixed third of the
  // threshold — wide enough to forgive transient lag around a crossing,
  // narrow enough that the workload's peaks (global norm ≈ 5) put a solid
  // block of cycles out of zone above the surface, where a missed detection
  // is a genuine FN. The self-correction horizon mirrors the stress
  // harness's coordinator-crash legs. The paper's δ bounds the out-of-zone
  // FN rate; chaos is allowed to add at most one extra missed cycle per
  // hundred.
  const RuntimeConfig protocol = ProtocolConfig();
  SyntheticDriftGenerator generator(GeneratorConfig());
  const L2Norm norm;
  AccuracyAuditorConfig audit;
  audit.epsilon = protocol.threshold / 3.0;
  audit.max_out_of_zone_run = 200;
  long out_of_zone_above = 0;
  AccuracyAuditor auditor(audit);
  std::vector<Vector> locals;
  for (long cycle = 0; cycle <= kCycles; ++cycle) {
    generator.Advance(&locals);
    Vector global(locals[0].dim());
    for (const Vector& local : locals) global += local;
    global /= static_cast<double>(kSites);
    const double truth_value = norm.Value(global);
    const BeliefRecord& record = beliefs.at(cycle);
    AccuracyAuditor::CycleSample sample;
    sample.cycle = cycle;
    sample.believed_above = record.above;
    sample.truth_above = truth_value > protocol.threshold;
    sample.estimate_value = record.estimate_value;
    sample.truth_value = truth_value;
    sample.surface_distance =
        norm.DistanceToSurface(global, protocol.threshold);
    if (sample.truth_above && sample.surface_distance > audit.epsilon) {
      ++out_of_zone_above;
    }
    auditor.ObserveCycle(sample);
  }
  const AccuracyAuditor::Report& report = auditor.report();
  EXPECT_GT(report.true_positives + report.false_negatives, 0L)
      << "the workload never crossed the threshold — the audit is vacuous";
  EXPECT_GT(out_of_zone_above, 10L)
      << "almost no cycle sits clearly above the surface — the FN gate "
         "judges nothing";
  EXPECT_LE(report.fn_rate(), protocol.delta + 0.01)
      << "missed detections beyond the paper's failure allowance: "
      << report.out_of_zone_false_negatives << " out-of-zone FNs over "
      << report.cycles << " cycles";
  EXPECT_EQ(report.bound_violations, 0L)
      << "an out-of-zone disagreement run outlived the self-correction "
         "horizon";
  std::printf(
      "audit: cycles=%ld TP=%ld TN=%ld FP=%ld FN=%ld oz-FN=%ld "
      "fn-rate=%.4f max-err=%.4f\n",
      report.cycles, report.true_positives, report.true_negatives,
      report.false_positives, report.false_negatives,
      report.out_of_zone_false_negatives, report.fn_rate(),
      report.max_abs_error);
}

TEST(ChaosIntegrationTest, SigstoppedSiteIsQuarantinedNotBlocking) {
  const std::uint64_t chaos_seed = SeedFromEnv();
  const StragglerSchedule schedule = StragglerScheduleFor(chaos_seed);
  const std::string artifacts = ArtifactsDir();
  const std::string beliefs_path = artifacts + "/straggler-beliefs.txt";
  const std::string coord_trace = artifacts + "/straggler-coordinator.jsonl";
  const std::string victim_trace = artifacts + "/straggler-victim.jsonl";
  std::remove(beliefs_path.c_str());
  std::printf(
      "straggler leg: chaos seed %llu, site %d frozen after cycle %ld for "
      "%ld cycles, artifacts in %s\n",
      static_cast<unsigned long long>(chaos_seed), schedule.victim,
      schedule.freeze_after - 1, kStragglerFrozenCycles, artifacts.c_str());

  int port_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0);
  const pid_t coordinator = fork();
  ASSERT_GE(coordinator, 0);
  if (coordinator == 0) {
    ::close(port_pipe[0]);
    StragglerCoordinatorMain(port_pipe[1], beliefs_path, coord_trace);
  }
  ::close(port_pipe[1]);
  int port = 0;
  ASSERT_EQ(::read(port_pipe[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  ::close(port_pipe[0]);
  ASSERT_GT(port, 0);

  std::vector<pid_t> sites(kSites);
  for (int id = 0; id < kSites; ++id) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      StragglerSiteMain(id, port,
                        id == schedule.victim ? victim_trace : std::string());
    }
    sites[id] = pid;
  }

  // Let the deployment settle into steady cycles, then freeze the victim
  // process outright — the purest straggler: the TCP session stays up, the
  // process just stops scheduling.
  ASSERT_TRUE(AwaitBeliefLines(beliefs_path, schedule.freeze_after))
      << "coordinator never reached cycle " << schedule.freeze_after;
  ASSERT_EQ(::kill(sites[schedule.victim], SIGSTOP), 0);

  // Liveness under a stopped site: the deadline-driven barrier must keep
  // closing cycles over the responsive quorum. 40 further cycles against a
  // frozen peer complete only if no send and no barrier wait ever blocks on
  // it (the 60 s polling budget is far below 40 × the 30 s hard timeout).
  ASSERT_TRUE(AwaitBeliefLines(beliefs_path,
                               schedule.freeze_after + kStragglerFrozenCycles))
      << "cycle progress stalled while a site was SIGSTOPed — the stalled "
         "peer blocked the coordinator";
  ASSERT_EQ(::kill(sites[schedule.victim], SIGCONT), 0);

  // The coordinator's end-of-run _exit codes assert the rest: degraded
  // cycles recorded (65), a lag quarantine issued (66), the quarantine
  // lifted again (67), all sites connected (68).
  int status = 0;
  ASSERT_EQ(::waitpid(coordinator, &status, 0), coordinator);
  ASSERT_TRUE(WIFEXITED(status)) << "straggler coordinator died by signal";
  ASSERT_EQ(WEXITSTATUS(status), 0)
      << "coordinator-side invariant failed — code maps to the _exit table "
         "in StragglerCoordinatorMain";
  for (const pid_t pid : sites) {
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "site process died by signal";
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "site failed — code maps to the _exit table in StragglerSiteMain";
  }

  // Complete verdict stream: the quarantined cycles still produced beliefs.
  const std::map<long, BeliefRecord> beliefs = ReadBeliefLog(beliefs_path);
  ASSERT_EQ(beliefs.size(), static_cast<std::size_t>(kStragglerCycles) + 1);

  // Bounded-staleness accuracy gate: the audited out-of-zone FN rate over
  // the whole run — quarantined quorum cycles included — stays within the
  // paper's δ plus the same +0.01 chaos allowance as the crash leg.
  const RuntimeConfig protocol = ProtocolConfig();
  SyntheticDriftGenerator generator(GeneratorConfig());
  const L2Norm norm;
  AccuracyAuditorConfig audit;
  audit.epsilon = protocol.threshold / 3.0;
  audit.max_out_of_zone_run = 200;
  AccuracyAuditor auditor(audit);
  std::vector<Vector> locals;
  for (long cycle = 0; cycle <= kStragglerCycles; ++cycle) {
    generator.Advance(&locals);
    Vector global(locals[0].dim());
    for (const Vector& local : locals) global += local;
    global /= static_cast<double>(kSites);
    const double truth_value = norm.Value(global);
    const BeliefRecord& record = beliefs.at(cycle);
    AccuracyAuditor::CycleSample sample;
    sample.cycle = cycle;
    sample.believed_above = record.above;
    sample.truth_above = truth_value > protocol.threshold;
    sample.estimate_value = record.estimate_value;
    sample.truth_value = truth_value;
    sample.surface_distance =
        norm.DistanceToSurface(global, protocol.threshold);
    auditor.ObserveCycle(sample);
  }
  const AccuracyAuditor::Report& report = auditor.report();
  EXPECT_LE(report.fn_rate(), protocol.delta + 0.01)
      << "degraded cycles pushed missed detections beyond the failure "
         "allowance: " << report.out_of_zone_false_negatives
      << " out-of-zone FNs over " << report.cycles << " cycles";
  EXPECT_EQ(report.bound_violations, 0L);

  // Both process timelines merge into one span forest with no orphans: the
  // quarantine and re-anchor cascades are fully parented — no span was torn
  // by the stop/continue or the degraded barrier closes.
  std::vector<std::vector<TraceEvent>> timelines;
  for (const auto& entry :
       {std::make_pair(coord_trace, std::string("coordinator")),
        std::make_pair(victim_trace,
                       "site-" + std::to_string(schedule.victim))}) {
    std::vector<TraceEvent> events;
    std::string warning;
    const Status loaded = LoadTraceJsonlTolerant(
        entry.first, entry.second, /*validate=*/true, &events, &warning);
    ASSERT_TRUE(loaded.ok()) << entry.first << ": " << loaded.message();
    EXPECT_TRUE(warning.empty()) << warning;
    timelines.push_back(std::move(events));
  }
  const SpanForestSummary forest =
      SummarizeSpanForest(MergeTraceTimelines(std::move(timelines)));
  EXPECT_GT(forest.spans, 0L);
  EXPECT_TRUE(forest.orphans.empty())
      << "straggler run produced orphan spans: " << forest.orphans.front();
  std::printf(
      "straggler audit: cycles=%ld FN=%ld oz-FN=%ld fn-rate=%.4f spans=%ld\n",
      report.cycles, report.false_negatives,
      report.out_of_zone_false_negatives, report.fn_rate(), forest.spans);
}

}  // namespace
}  // namespace sgm

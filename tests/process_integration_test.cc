// Multi-process loopback integration test (CTest label: integration): one
// coordinator process (this test) plus four fork()ed site processes, each
// running the real SiteClient event loop over TCP, reproducing the seeded
// workload locally and speaking only protocol frames over the wire. The
// oracle is the single-process RuntimeDriver on the same seed: per-cycle
// belief sequence, final estimate, epoch and sync counters must match
// exactly — the paper's protocol, bit-for-bit, across process boundaries.
//
// fork() discipline: the server binds with Listen() before the forks, and
// the coordinator never starts a thread (checked below), so no thread ever
// exists in a forking process. Children _exit() — no gtest teardown, no
// destructors of the inherited server object.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "functions/l2_norm.h"
#include "obs/telemetry.h"
#include "obs/trace_merge.h"
#include "runtime/coordinator_server.h"
#include "runtime/driver.h"
#include "runtime/site_client.h"

namespace sgm {
namespace {

constexpr int kSites = 4;
constexpr int kCycles = 40;  // Tick cycles after the initialization sync

SyntheticDriftConfig GeneratorConfig() {
  SyntheticDriftConfig config;
  config.num_sites = kSites;
  config.dim = 4;
  config.seed = 23;
  // Short shared-drift period so the global average crosses the threshold
  // within the run — parity on a quiet workload would prove nothing.
  config.global_period = 60;
  config.global_amplitude = 2.5;
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

struct RunOutcome {
  std::vector<bool> beliefs;
  Vector estimate;
  std::int64_t epoch = 0;
  long full_syncs = 0;
  long partial_resolutions = 0;
  long degraded_syncs = 0;
};

RunOutcome RunSimOracle() {
  SyntheticDriftGenerator generator(GeneratorConfig());
  const L2Norm norm;
  RuntimeDriver driver(kSites, norm, ProtocolConfig());
  std::vector<Vector> locals;

  RunOutcome outcome;
  generator.Advance(&locals);
  driver.Initialize(locals);
  outcome.beliefs.push_back(driver.coordinator().BelievesAbove());
  for (int t = 0; t < kCycles; ++t) {
    generator.Advance(&locals);
    driver.Tick(locals);
    outcome.beliefs.push_back(driver.coordinator().BelievesAbove());
  }
  outcome.estimate = driver.coordinator().estimate();
  outcome.epoch = driver.coordinator().epoch();
  outcome.full_syncs = driver.coordinator().full_syncs();
  outcome.partial_resolutions = driver.coordinator().partial_resolutions();
  outcome.degraded_syncs = driver.coordinator().degraded_syncs();
  return outcome;
}

/// Threads of this process: the entries of /proc/self/task.
long ThreadCount() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator());
}

std::string TracePath(const std::string& proc) {
  return ::testing::TempDir() + "/procint." + proc + ".trace.jsonl";
}

/// The whole life of one site process; the exit status is its verdict.
[[noreturn]] void SiteProcessMain(int site_id, int port) {
  SyntheticDriftGenerator generator(GeneratorConfig());
  const L2Norm norm;
  const std::string proc = "site-" + std::to_string(site_id);
  Telemetry telemetry;
  telemetry.trace.SetProcess(proc);
  SiteClientConfig config;
  config.site_id = site_id;
  config.num_sites = kSites;
  config.port = port;
  config.runtime = ProtocolConfig();
  config.runtime.telemetry = &telemetry;
  SiteClient client(norm, config);
  if (!client.Connect()) _exit(2);
  std::vector<Vector> locals;
  long advanced = 0;
  const bool clean = client.Run([&](long cycle) {
    while (advanced <= cycle) {
      generator.Advance(&locals);
      ++advanced;
    }
    return locals[site_id];
  });
  if (!clean) _exit(3);
  if (client.cycles_observed() != kCycles + 1) _exit(4);
  {
    std::ofstream out(TracePath(proc));
    if (!out) _exit(5);
    telemetry.trace.WriteJsonl(out);
  }
  _exit(0);
}

TEST(ProcessIntegrationTest, FourSiteProcessesMatchSimDriverExactly) {
  const RunOutcome oracle = RunSimOracle();
  ASSERT_GE(oracle.full_syncs + oracle.partial_resolutions, 2)
      << "workload never re-triggered the protocol — retune the generator";

  const L2Norm norm;
  Telemetry telemetry;
  telemetry.trace.SetProcess("coordinator");
  CoordinatorServerConfig server_config;
  server_config.num_sites = kSites;
  server_config.runtime = ProtocolConfig();
  server_config.runtime.telemetry = &telemetry;
  CoordinatorServer server(norm, server_config);
  ASSERT_TRUE(server.Listen());
  const long threads_after_listen = ThreadCount();

  std::vector<pid_t> children;
  for (int id = 0; id < kSites; ++id) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) SiteProcessMain(id, server.port());  // never returns
    children.push_back(pid);
  }

  ASSERT_TRUE(server.WaitForSites()) << "not all site processes registered";
  RunOutcome socket;
  for (int cycle = 0; cycle <= kCycles; ++cycle) {
    ASSERT_TRUE(server.RunCycle()) << "barrier timed out at cycle " << cycle;
    socket.beliefs.push_back(server.BelievesAbove());
  }
  // The coordinator serves its sites from the thread that runs the cycles:
  // no accept, reader or writer thread.
  EXPECT_EQ(ThreadCount(), threads_after_listen);
  socket.estimate = server.Estimate();
  socket.epoch = server.Epoch();
  socket.full_syncs = server.FullSyncs();
  socket.partial_resolutions = server.PartialResolutions();
  socket.degraded_syncs = server.DegradedSyncs();
  const long paper_messages = server.PaperMessages();
  const long paper_site_messages = server.PaperSiteMessages();
  server.Shutdown();

  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "site process killed by signal";
    EXPECT_EQ(WEXITSTATUS(status), 0) << "site process failed";
  }

  // The acceptance bar of the socket runtime: a real multi-process
  // deployment reaches the same verdicts and the same estimate as the
  // reference single-process run of the same seed.
  EXPECT_EQ(socket.beliefs, oracle.beliefs);
  EXPECT_EQ(socket.estimate, oracle.estimate);  // exact, not approximate
  EXPECT_EQ(socket.epoch, oracle.epoch);
  EXPECT_EQ(socket.full_syncs, oracle.full_syncs);
  EXPECT_EQ(socket.partial_resolutions, oracle.partial_resolutions);
  EXPECT_EQ(socket.degraded_syncs, oracle.degraded_syncs);
  EXPECT_GT(paper_messages, 0);
  EXPECT_GT(paper_site_messages, 0);

  // ── Cross-process trace aggregation over the same run ────────────────────
  // Each process wrote its own stamped JSONL; the merge must produce one
  // validated, causally ordered timeline whose span forest has no orphans
  // and whose probe cascades demonstrably cross process boundaries.
  {
    std::ofstream out(TracePath("coordinator"));
    ASSERT_TRUE(out.good());
    telemetry.trace.WriteJsonl(out);
  }
  std::vector<std::vector<TraceEvent>> logs;
  std::vector<std::string> procs = {"coordinator"};
  for (int id = 0; id < kSites; ++id) {
    procs.push_back("site-" + std::to_string(id));
  }
  for (const std::string& proc : procs) {
    std::vector<TraceEvent> events;
    const Status loaded =
        LoadTraceJsonl(TracePath(proc), proc, /*validate=*/true, &events);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    ASSERT_FALSE(events.empty()) << proc << " wrote an empty trace";
    logs.push_back(std::move(events));
  }
  const std::vector<TraceEvent> merged = MergeTraceTimelines(logs);
  const SpanForestSummary forest = SummarizeSpanForest(merged);
  EXPECT_TRUE(forest.orphans.empty())
      << forest.orphans.size() << " orphan span(s), first: "
      << forest.orphans.front();
  EXPECT_GT(forest.spans, 0);
  EXPECT_GT(forest.roots, 0);
  // The protocol's sync cascades are inherently multi-process: the
  // coordinator mints the span and the sites' reports echo it.
  EXPECT_GT(forest.cross_process_spans, 0);
  bool crossing_critical_path = false;
  for (const SpanForestSummary::Root& root : forest.root_details) {
    if (root.critical_path_procs.size() >= 2) crossing_critical_path = true;
    // Sites never mint spans, so every tree grows from the coordinator's
    // events. A root without them is a site event whose causing send left
    // no msg_send in the coordinator's trace.
    const bool from_coordinator =
        std::find(root.procs.begin(), root.procs.end(), "coordinator") !=
        root.procs.end();
    EXPECT_TRUE(from_coordinator)
        << "span " << root.span << " (" << root.label
        << ") has no coordinator event";
  }
  EXPECT_TRUE(crossing_critical_path)
      << "no cascade's critical path crossed a process boundary";
}

}  // namespace
}  // namespace sgm

// Tests of the socket runtime's self-healing paths, fully in-process (no
// fork — this suite runs under TSan in CI):
//  * reconnect-with-rejoin: a severed site connection redials, re-registers
//    with a re-hello, and the rejoin handshake re-anchors the site without
//    poisoning the paper counters;
//  * coordinator restart-from-checkpoint: a Halt()ed (crash-stopped)
//    coordinator's successor recovers from the shared store with an exact
//    epoch fence while the surviving site clients reconnect to it;
//  * site replacement: a site process that stops is replaced by a fresh
//    one, which the coordinator hears from its first frame.
// The restart and replacement runs are long enough that the old process
// sent hundreds of frames before the new one starts: a per-process
// sequence space keyed by site id would drop the new process's frames as
// duplicates of the old one's.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "functions/l2_norm.h"
#include "obs/telemetry.h"
#include "runtime/checkpoint.h"
#include "runtime/coordinator_server.h"
#include "runtime/site_client.h"

namespace sgm {
namespace {

constexpr int kSites = 4;

SyntheticDriftConfig GeneratorConfig() {
  SyntheticDriftConfig config;
  config.num_sites = kSites;
  config.dim = 4;
  config.seed = 23;
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

SiteClientConfig SiteConfig(int id, int port) {
  SiteClientConfig config;
  config.site_id = id;
  config.num_sites = kSites;
  config.port = port;
  config.runtime = ProtocolConfig();
  // Fast dial policy: restarts in this suite happen within milliseconds.
  config.runtime.socket_retry.max_attempts = 400;
  config.runtime.socket_retry.base_backoff_ms = 1;
  config.runtime.socket_retry.max_backoff_ms = 20;
  config.max_reconnects = 16;
  return config;
}

/// Site worker over a heap-owned client (the test thread keeps the pointer
/// so it can inject faults mid-run).
void RunSite(SiteClient* client, int id, std::atomic<int>* failures) {
  SyntheticDriftGenerator generator(GeneratorConfig());
  if (!client->Connect()) {
    failures->fetch_add(1);
    return;
  }
  std::vector<Vector> locals;
  long advanced = 0;
  if (!client->Run([&](long cycle) {
        while (advanced <= cycle) {
          generator.Advance(&locals);
          ++advanced;
        }
        return locals[id];
      })) {
    failures->fetch_add(1);
  }
}

TEST(ReconnectTest, InjectedResetTriggersReconnectAndRejoin) {
  const L2Norm norm;
  Telemetry telemetry;
  CoordinatorServerConfig server_config;
  server_config.num_sites = kSites;
  server_config.runtime = ProtocolConfig();
  server_config.runtime.telemetry = &telemetry;
  CoordinatorServer server(norm, server_config);
  ASSERT_TRUE(server.Listen());

  std::vector<std::unique_ptr<SiteClient>> clients;
  for (int id = 0; id < kSites; ++id) {
    clients.push_back(
        std::make_unique<SiteClient>(norm, SiteConfig(id, server.port())));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int id = 0; id < kSites; ++id) {
    threads.emplace_back(RunSite, clients[id].get(), id, &failures);
  }
  ASSERT_TRUE(server.WaitForSites());

  for (long cycle = 0; cycle <= 10; ++cycle) ASSERT_TRUE(server.RunCycle());
  const long syncs_before = server.FullSyncs();

  // Sever site 1's connection from outside. The client must notice, redial,
  // re-hello, and drive the rejoin handshake — all while the lockstep
  // cycles keep running against the shifting membership. The wait is
  // adaptive: a fixed cycle count races the client thread's redial under
  // CPU contention (the lockstep loop runs orders of magnitude faster than
  // a loaded scheduler re-runs the site thread).
  clients[1]->InjectConnectionReset();
  bool rehello = false;
  for (long cycle = 0; cycle < 400 && !rehello; ++cycle) {
    ASSERT_TRUE(server.RunCycle());
    rehello = server.SiteRehellos() >= 1;
    if (!rehello) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(rehello) << "site 1 never re-registered";
  // Post-rejoin window: the grant schedules a resync; let it land.
  for (long cycle = 0; cycle <= 30; ++cycle) ASSERT_TRUE(server.RunCycle());

  EXPECT_GE(clients[1]->reconnects(), 1L);
  EXPECT_GE(server.SiteRehellos(), 1L);
  EXPECT_GE(server.SiteDisconnects(), 1L);
  EXPECT_EQ(server.ConnectedCount(), kSites);
  // Bounded reconvergence: the rejoin grant schedules a resync, so the
  // post-fault window must contain at least one fresh full sync.
  EXPECT_GT(server.FullSyncs(), syncs_before);

  server.Shutdown();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (const auto& client : clients) {
    EXPECT_EQ(client->exit_reason(), SiteExitReason::kShutdown);
  }

  // The rejoin path must not have smuggled stale state into the estimate.
  server.PublishMetrics();
  MetricRegistry& registry = telemetry.registry;
  EXPECT_EQ(registry.GetCounter("coordinator.stale_epoch_applied")->value(),
            0L);
  EXPECT_GE(registry.GetCounter("coordinator.rejoins_granted")->value(), 1L);
  EXPECT_GE(registry.GetCounter("socket.site_rehellos")->value(), 1L);
}

/// Cycles after a restart or replacement within which every site must be
/// re-anchored.
constexpr long kRejoinWindowCycles = 50;

/// Runs a coordinator through cycles 0..`last_cycle`, crash-stops it,
/// recovers a successor from the shared store on the same port, and checks
/// the exact epoch fence, the resumed cycle and the sites' rejoin.
void RunCoordinatorRestart(long last_cycle) {
  SCOPED_TRACE("crash after cycle " + std::to_string(last_cycle));
  const L2Norm norm;
  InMemoryCheckpointStore store;

  CoordinatorServerConfig config;
  config.num_sites = kSites;
  config.runtime = ProtocolConfig();
  config.runtime.checkpoint_store = &store;
  config.runtime.checkpoint_interval_cycles = 5;

  auto first = std::make_unique<CoordinatorServer>(norm, config);
  ASSERT_TRUE(first->Listen());
  const int port = first->port();

  std::vector<std::unique_ptr<SiteClient>> clients;
  for (int id = 0; id < kSites; ++id) {
    clients.push_back(
        std::make_unique<SiteClient>(norm, SiteConfig(id, port)));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int id = 0; id < kSites; ++id) {
    threads.emplace_back(RunSite, clients[id].get(), id, &failures);
  }
  ASSERT_TRUE(first->WaitForSites());
  for (long cycle = 0; cycle <= last_cycle; ++cycle) {
    ASSERT_TRUE(first->RunCycle());
  }
  const long cycles_before = first->CyclesRun();

  // Crash-stop: no shutdown broadcast. Site clients see a raw EOF and
  // start redialing the port.
  first->Halt();
  first.reset();

  // What the dead incarnation durably committed (log-before-wire makes
  // this exact, not approximate).
  const Result<Reconstruction> committed =
      ReconstructCoordinatorState(store);
  ASSERT_TRUE(committed.ok());
  const std::int64_t committed_epoch = committed.ValueOrDie().state.epoch;

  Telemetry telemetry;
  CoordinatorServerConfig restart_config = config;
  restart_config.port = port;  // same endpoint the sites keep dialing
  restart_config.runtime.telemetry = &telemetry;
  CoordinatorServer second(norm, restart_config);
  ASSERT_TRUE(second.Listen());
  ASSERT_TRUE(second.Recover());
  // The fence is exact: one past the committed epoch, every time.
  EXPECT_EQ(second.Epoch(), committed_epoch + 1);
  // Field-level restore: the successor resumes the committed cycle (the
  // newest snapshot/WAL record's), never restarts from zero, and never
  // falls behind the last snapshot before the crash.
  EXPECT_EQ(second.CyclesRun() - 1, committed.ValueOrDie().state.cycle);
  EXPECT_LE(second.CyclesRun(), cycles_before);
  const long interval = config.runtime.checkpoint_interval_cycles;
  EXPECT_GE(second.CyclesRun(), last_cycle / interval * interval + 1);
  const long syncs_after_restore = second.FullSyncs();
  const long degraded_after_restore = second.DegradedSyncs();

  ASSERT_TRUE(second.WaitForSites());
  for (long cycle = 0; cycle < kRejoinWindowCycles; ++cycle) {
    ASSERT_TRUE(second.RunCycle());
  }
  EXPECT_EQ(second.ConnectedCount(), kSites);
  // Each site re-anchors through a grant or two; a site that discarded the
  // new incarnation's grants would ask again every cycle.
  second.PublishMetrics();
  EXPECT_LE(telemetry.registry.GetCounter("coordinator.rejoins_granted")
                ->value(),
            2L * kSites);
  // The recovery resync folds every site's fresh state back in cleanly.
  EXPECT_GT(second.FullSyncs(), syncs_after_restore);
  EXPECT_EQ(second.DegradedSyncs(), degraded_after_restore);
  second.Shutdown();
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  for (const auto& client : clients) {
    EXPECT_EQ(client->exit_reason(), SiteExitReason::kShutdown);
    EXPECT_GE(client->reconnects(), 1L);
    // Re-anchored by the successor: an anchor of the fenced incarnation.
    EXPECT_TRUE(client->node().anchored());
    EXPECT_GT(client->node().epoch(), committed_epoch);
  }
}

TEST(ReconnectTest, CoordinatorRestartRecoversWithExactEpochFence) {
  RunCoordinatorRestart(/*last_cycle=*/12);
  RunCoordinatorRestart(/*last_cycle=*/320);
}

TEST(ReconnectTest, ReplacedSiteProcessIsHeardFromItsFirstFrame) {
  const L2Norm norm;
  Telemetry telemetry;
  CoordinatorServerConfig server_config;
  server_config.num_sites = kSites;
  server_config.runtime = ProtocolConfig();
  server_config.runtime.telemetry = &telemetry;
  CoordinatorServer server(norm, server_config);
  ASSERT_TRUE(server.Listen());

  std::vector<std::unique_ptr<SiteClient>> clients;
  for (int id = 0; id < kSites; ++id) {
    clients.push_back(
        std::make_unique<SiteClient>(norm, SiteConfig(id, server.port())));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int id = 0; id < kSites; ++id) {
    threads.emplace_back(RunSite, clients[id].get(), id, &failures);
  }
  ASSERT_TRUE(server.WaitForSites());
  for (long cycle = 0; cycle <= 320; ++cycle) ASSERT_TRUE(server.RunCycle());

  // Site 1's process ends; a fresh one takes its place. Its node starts
  // from nothing, and its stream from its first frame.
  MetricRegistry& registry = telemetry.registry;
  const long grants_before =
      registry.GetCounter("coordinator.rejoins_granted")->value();
  clients[1]->RequestStop();
  threads[1].join();
  clients[1] = std::make_unique<SiteClient>(norm, SiteConfig(1, server.port()));
  threads[1] = std::thread(RunSite, clients[1].get(), 1, &failures);

  // Adaptive wait for the replacement's hello and its first grant (see
  // InjectedResetTriggersReconnectAndRejoin).
  bool granted = false;
  for (long cycle = 0; cycle < 400 && !granted; ++cycle) {
    ASSERT_TRUE(server.RunCycle());
    granted = server.SiteRehellos() >= 1 &&
              registry.GetCounter("coordinator.rejoins_granted")->value() >
                  grants_before;
    if (!granted) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(granted) << "the replacement site was never granted a rejoin";

  // The grant schedules a resync that folds the new process's state in.
  // Heard from its first frame, the new process answers every request: no
  // sync completes degraded and no straggler is re-requested.
  const long syncs = server.FullSyncs();
  const long degraded = server.DegradedSyncs();
  const long rerequests =
      registry.GetCounter("coordinator.sync_rerequests")->value();
  for (long cycle = 0; cycle < kRejoinWindowCycles; ++cycle) {
    ASSERT_TRUE(server.RunCycle());
  }
  EXPECT_GT(server.FullSyncs(), syncs);
  EXPECT_EQ(server.DegradedSyncs(), degraded);
  EXPECT_EQ(registry.GetCounter("coordinator.sync_rerequests")->value(),
            rerequests);
  EXPECT_EQ(server.ConnectedCount(), kSites);

  server.Shutdown();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (const auto& client : clients) {
    EXPECT_EQ(client->exit_reason(), SiteExitReason::kShutdown);
    EXPECT_TRUE(client->node().anchored());
  }
}

TEST(ReconnectTest, RecoverWithEmptyStoreFailsCleanly) {
  const L2Norm norm;
  InMemoryCheckpointStore store;
  CoordinatorServerConfig config;
  config.num_sites = kSites;
  config.runtime = ProtocolConfig();
  config.runtime.checkpoint_store = &store;
  CoordinatorServer server(norm, config);
  ASSERT_TRUE(server.Listen());
  EXPECT_FALSE(server.Recover()) << "no snapshot should mean no recovery";
  server.Shutdown();
}

}  // namespace
}  // namespace sgm

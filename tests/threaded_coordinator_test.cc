// Tests of the threaded coordinator service (src/runtime/coordinator_server)
// against in-process SiteClient threads over real loopback sockets. Runs
// under TSan in CI (unit label), so the accept thread, the per-connection
// reader threads and the cycle thread exercise the locking discipline for
// real — and the behavioural oracle is exact: the same seeded workload
// through the single-process RuntimeDriver must produce the identical
// per-cycle belief sequence, final estimate, epoch and sync counts.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "functions/l2_norm.h"
#include "obs/telemetry.h"
#include "runtime/coordinator_server.h"
#include "runtime/driver.h"
#include "runtime/serialization.h"
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
  // A short shared-drift period so the global average actually swings
  // across the threshold within the run — the parity claim is vacuous on a
  // workload that never triggers the protocol.
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

/// What one deployment run (either harness) must agree on, bit for bit.
struct RunOutcome {
  std::vector<bool> beliefs;  // per cycle, initialization included
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

/// One site's worker thread: connect, then serve observations from this
/// site's column of a locally reconstructed generator run — the same
/// deterministic stream the oracle fed the driver.
void SiteThread(int site_id, int port, std::atomic<bool>* ok) {
  SyntheticDriftGenerator generator(GeneratorConfig());
  const L2Norm norm;
  SiteClientConfig config;
  config.site_id = site_id;
  config.num_sites = kSites;
  config.port = port;
  config.runtime = ProtocolConfig();
  SiteClient client(norm, config);
  if (!client.Connect()) {
    ok->store(false);
    return;
  }
  std::vector<Vector> locals;
  long advanced = 0;
  const bool clean = client.Run([&](long cycle) {
    while (advanced <= cycle) {
      generator.Advance(&locals);
      ++advanced;
    }
    return locals[site_id];
  });
  if (!clean || client.cycles_observed() != kCycles + 1) ok->store(false);
}

TEST(ThreadedCoordinatorTest, LoopbackRunMatchesSimDriverExactly) {
  const RunOutcome oracle = RunSimOracle();
  // Guard against a degenerate workload: the run must contain real protocol
  // activity beyond the initialization sync for parity to mean anything.
  ASSERT_GE(oracle.full_syncs + oracle.partial_resolutions, 2)
      << "workload never re-triggered the protocol — retune the generator";

  const L2Norm norm;
  CoordinatorServerConfig server_config;
  server_config.num_sites = kSites;
  server_config.runtime = ProtocolConfig();
  CoordinatorServer server(norm, server_config);
  ASSERT_TRUE(server.Listen());

  std::atomic<bool> sites_ok{true};
  std::vector<std::thread> sites;
  sites.reserve(kSites);
  for (int id = 0; id < kSites; ++id) {
    sites.emplace_back(SiteThread, id, server.port(), &sites_ok);
  }

  ASSERT_TRUE(server.WaitForSites()) << "not all sites registered";
  RunOutcome socket;
  for (int cycle = 0; cycle <= kCycles; ++cycle) {
    ASSERT_TRUE(server.RunCycle()) << "barrier timed out at cycle " << cycle;
    socket.beliefs.push_back(server.BelievesAbove());
  }
  socket.estimate = server.Estimate();
  socket.epoch = server.Epoch();
  socket.full_syncs = server.FullSyncs();
  socket.partial_resolutions = server.PartialResolutions();
  socket.degraded_syncs = server.DegradedSyncs();

  server.Shutdown();
  for (std::thread& site : sites) site.join();
  EXPECT_TRUE(sites_ok.load());

  // The acceptance bar: real sockets, real threads — identical verdicts.
  EXPECT_EQ(socket.beliefs, oracle.beliefs);
  EXPECT_EQ(socket.estimate, oracle.estimate);  // exact, not approximate
  EXPECT_EQ(socket.epoch, oracle.epoch);
  EXPECT_EQ(socket.full_syncs, oracle.full_syncs);
  EXPECT_EQ(socket.partial_resolutions, oracle.partial_resolutions);
  EXPECT_EQ(socket.degraded_syncs, oracle.degraded_syncs);

  // Star topology: the coordinator's deployment-wide paper accounting saw
  // every message of the run, so a faultless socket run can't be cheaper
  // than the sim's single-bus count of the very same protocol exchange.
  EXPECT_GT(server.PaperMessages(), 0);
  EXPECT_GT(server.PaperSiteMessages(), 0);
}

TEST(ThreadedCoordinatorTest, DeadlineBarrierIsInertOnHealthyDeployment) {
  // A generous barrier deadline plus the async outbound path must not
  // change a single verdict on a healthy loopback deployment: the sim
  // oracle parity bar applies unchanged.
  const RunOutcome oracle = RunSimOracle();

  const L2Norm norm;
  CoordinatorServerConfig server_config;
  server_config.num_sites = kSites;
  server_config.runtime = ProtocolConfig();
  server_config.barrier_deadline_ms = 5000;
  server_config.send_queue_frames = 256;
  CoordinatorServer server(norm, server_config);
  ASSERT_TRUE(server.Listen());

  std::atomic<bool> sites_ok{true};
  std::vector<std::thread> sites;
  sites.reserve(kSites);
  for (int id = 0; id < kSites; ++id) {
    sites.emplace_back(SiteThread, id, server.port(), &sites_ok);
  }

  ASSERT_TRUE(server.WaitForSites());
  RunOutcome socket;
  for (int cycle = 0; cycle <= kCycles; ++cycle) {
    ASSERT_TRUE(server.RunCycle()) << "barrier timed out at cycle " << cycle;
    socket.beliefs.push_back(server.BelievesAbove());
  }
  socket.estimate = server.Estimate();
  socket.epoch = server.Epoch();
  socket.full_syncs = server.FullSyncs();
  socket.partial_resolutions = server.PartialResolutions();

  const CoordinatorServer::Health health = server.GetHealth();
  server.Shutdown();
  for (std::thread& site : sites) site.join();
  EXPECT_TRUE(sites_ok.load());

  EXPECT_EQ(socket.beliefs, oracle.beliefs);
  EXPECT_EQ(socket.estimate, oracle.estimate);
  EXPECT_EQ(socket.epoch, oracle.epoch);
  EXPECT_EQ(socket.full_syncs, oracle.full_syncs);
  EXPECT_EQ(socket.partial_resolutions, oracle.partial_resolutions);
  // Nobody straggled, so the deadline machinery must have stayed silent.
  EXPECT_EQ(health.degraded_cycles, 0);
  EXPECT_EQ(health.lag_quarantines, 0);
  EXPECT_EQ(health.lagging_sites, 0);
}

TEST(ThreadedCoordinatorTest, StalledSiteDegradesBarrierThenRejoins) {
  const L2Norm norm;
  CoordinatorServerConfig server_config;
  server_config.num_sites = kSites;
  server_config.runtime = ProtocolConfig();
  // Tight deadline, bounded async queue: a 200 ms stall spans several
  // barrier deadlines, so the coordinator must degrade, quarantine the
  // straggler, and keep every cycle moving.
  server_config.barrier_deadline_ms = 50;
  server_config.send_queue_frames = 256;
  CoordinatorServer server(norm, server_config);
  ASSERT_TRUE(server.Listen());

  std::vector<std::unique_ptr<SiteClient>> clients;
  for (int id = 0; id < kSites; ++id) {
    SiteClientConfig config;
    config.site_id = id;
    config.num_sites = kSites;
    config.port = server.port();
    config.runtime = ProtocolConfig();
    clients.push_back(std::make_unique<SiteClient>(norm, config));
  }
  std::atomic<bool> sites_ok{true};
  std::vector<std::thread> sites;
  for (int id = 0; id < kSites; ++id) {
    sites.emplace_back([id, &clients, &sites_ok] {
      SyntheticDriftGenerator generator(GeneratorConfig());
      if (!clients[id]->Connect()) {
        sites_ok.store(false);
        return;
      }
      std::vector<Vector> locals;
      long advanced = 0;
      if (!clients[id]->Run([&](long cycle) {
            while (advanced <= cycle) {
              generator.Advance(&locals);
              ++advanced;
            }
            return locals[id];
          })) {
        sites_ok.store(false);
      }
    });
  }

  ASSERT_TRUE(server.WaitForSites());
  constexpr int kStallVictim = 2;
  for (int cycle = 0; cycle <= kCycles; ++cycle) {
    // Liveness is the bar: no cycle may block on the frozen site.
    ASSERT_TRUE(server.RunCycle()) << "barrier timed out at cycle " << cycle;
    // Pace the run so the victim's 200 ms nap ends with cycles to spare
    // for the catch-up → rejoin → re-anchor leg.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (cycle == 5) clients[kStallVictim]->InjectProcessingStall(200);
  }

  const CoordinatorServer::Health health = server.GetHealth();
  server.Shutdown();
  for (std::thread& site : sites) site.join();
  EXPECT_TRUE(sites_ok.load());

  EXPECT_GT(health.degraded_cycles, 0);
  EXPECT_GE(health.lag_quarantines, 1);
  // The straggler caught up: verdict lifted, session still connected.
  EXPECT_EQ(health.lagging_sites, 0);
  EXPECT_EQ(health.connected_sites, kSites);
  EXPECT_EQ(server.CyclesRun(), kCycles + 1);
}

TEST(ThreadedCoordinatorTest, OutOfRangeSenderFramesAreCountedNotFatal) {
  // A CRC-valid frame can still name a sender outside the deployment. The
  // coordinator must drop it as garbage on the wire (counted, stream kept)
  // instead of handing it to the node, whose per-site state it would index
  // out of range.
  const L2Norm norm;
  Telemetry telemetry;
  CoordinatorServerConfig server_config;
  server_config.num_sites = kSites;
  server_config.runtime = ProtocolConfig();
  server_config.runtime.telemetry = &telemetry;
  CoordinatorServer server(norm, server_config);
  ASSERT_TRUE(server.Listen());

  std::atomic<bool> sites_ok{true};
  std::vector<std::thread> sites;
  for (int id = 0; id < kSites; ++id) {
    sites.emplace_back(SiteThread, id, server.port(), &sites_ok);
  }
  ASSERT_TRUE(server.WaitForSites());
  ASSERT_TRUE(server.RunCycle());  // the initialization sync

  RuntimeMessage beyond;  // one past the last site
  beyond.type = RuntimeMessage::Type::kHeartbeat;
  beyond.from = kSites;
  beyond.to = kCoordinatorId;
  RuntimeMessage negative;  // neither a site nor the coordinator
  negative.type = RuntimeMessage::Type::kDriftReport;
  negative.from = -7;
  negative.to = kCoordinatorId;
  negative.epoch = 1;
  negative.seq = 1;
  negative.payload = Vector(4, 0.5);
  const int raw = ConnectTcpLoopback(server.port(), 2000);
  ASSERT_GE(raw, 0);
  for (const RuntimeMessage& message : {beyond, negative}) {
    const std::vector<std::uint8_t> frame = EncodeMessage(message);
    const std::uint32_t n = static_cast<std::uint32_t>(frame.size());
    std::vector<std::uint8_t> bytes = {
        static_cast<std::uint8_t>(n), static_cast<std::uint8_t>(n >> 8),
        static_cast<std::uint8_t>(n >> 16), static_cast<std::uint8_t>(n >> 24)};
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    ASSERT_TRUE(WriteAll(raw, bytes.data(), bytes.size()));
  }

  // The raw connection's reader thread handles the frames asynchronously.
  const Counter* corrupt =
      telemetry.registry.GetCounter("socket.corrupt_frames");
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (corrupt->value() < 2 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.PublishMetrics();
  }
  EXPECT_EQ(corrupt->value(), 2);

  // The coordinator keeps serving the deployment.
  for (int cycle = 1; cycle <= kCycles; ++cycle) {
    ASSERT_TRUE(server.RunCycle()) << "barrier timed out at cycle " << cycle;
  }
  EXPECT_EQ(server.ConnectedCount(), kSites);
  server.Shutdown();
  ::close(raw);
  for (std::thread& site : sites) site.join();
  EXPECT_TRUE(sites_ok.load());
  EXPECT_EQ(corrupt->value(), 2);
}

TEST(ThreadedCoordinatorTest, ShutdownWithoutCyclesIsClean) {
  // Degenerate lifecycle: sites register, the server shuts down before any
  // cycle. Every thread must unwind without a cycle ever running.
  const L2Norm norm;
  CoordinatorServerConfig server_config;
  server_config.num_sites = kSites;
  server_config.runtime = ProtocolConfig();
  CoordinatorServer server(norm, server_config);
  ASSERT_TRUE(server.Listen());

  std::atomic<bool> sites_ok{true};
  std::vector<std::thread> sites;
  for (int id = 0; id < kSites; ++id) {
    sites.emplace_back([id, port = server.port(), &sites_ok] {
      SyntheticDriftGenerator generator(GeneratorConfig());
      const L2Norm norm_local;
      SiteClientConfig config;
      config.site_id = id;
      config.num_sites = kSites;
      config.port = port;
      config.runtime = ProtocolConfig();
      SiteClient client(norm_local, config);
      if (!client.Connect()) {
        sites_ok.store(false);
        return;
      }
      std::vector<Vector> locals;
      long advanced = 0;
      if (!client.Run([&](long cycle) {
            while (advanced <= cycle) {
              generator.Advance(&locals);
              ++advanced;
            }
            return locals[id];
          })) {
        sites_ok.store(false);
      }
    });
  }
  ASSERT_TRUE(server.WaitForSites());
  server.Shutdown();
  for (std::thread& site : sites) site.join();
  EXPECT_TRUE(sites_ok.load());
  EXPECT_EQ(server.CyclesRun(), 0);
}

}  // namespace
}  // namespace sgm

// Tests of the coordinator service (src/runtime/coordinator_server) against
// in-process SiteClient threads over real loopback sockets. Runs under TSan
// in CI (unit label), so the site threads and the coordinator's event loop
// on the test thread exercise the socket tier concurrently for real — and
// the behavioural oracle is exact: the same seeded workload through the
// single-process RuntimeDriver must produce the identical per-cycle belief
// sequence, final estimate, epoch and sync counts.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
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
#include "runtime/socket_transport.h"

namespace sgm {
namespace {

constexpr int kSites = 4;
constexpr int kCycles = 40;  // Tick cycles after the initialization sync

SyntheticDriftConfig GeneratorConfig(int num_sites = kSites) {
  SyntheticDriftConfig config;
  config.num_sites = num_sites;
  config.dim = 4;
  config.seed = 23;
  // A short shared-drift period so the global average actually swings
  // across the threshold within the run — the parity claim is vacuous on a
  // workload that never triggers the protocol.
  config.global_period = 60;
  config.global_amplitude = 2.5;
  return config;
}

RuntimeConfig ProtocolConfig(int num_sites = kSites) {
  SyntheticDriftGenerator probe(GeneratorConfig(num_sites));
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
  // A generous barrier deadline must not change a single verdict on a
  // healthy loopback deployment: the sim oracle parity bar applies
  // unchanged.
  const RunOutcome oracle = RunSimOracle();

  const L2Norm norm;
  CoordinatorServerConfig server_config;
  server_config.num_sites = kSites;
  server_config.runtime = ProtocolConfig();
  server_config.barrier_deadline_ms = 5000;
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
  // Tight deadline: a 200 ms stall spans several barrier deadlines, so the
  // coordinator must degrade, quarantine the straggler, and keep every
  // cycle moving.
  server_config.barrier_deadline_ms = 50;
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
  // A CRC-valid frame can still name a sender outside the deployment, or an
  // epoch the coordinator has not issued. The coordinator must drop it as
  // garbage on the wire (counted, stream kept) instead of handing it to the
  // node, whose per-site state it would index out of range or whose epoch
  // invariant it would break.
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
  RuntimeMessage future;  // a real site, an epoch not issued yet
  future.type = RuntimeMessage::Type::kHeartbeat;
  future.from = 0;
  future.to = kCoordinatorId;
  future.epoch = server.Epoch() + 1;
  std::uint64_t jitter = 1;
  const int raw =
      ConnectTcpLoopbackWithRetry(server.port(), SocketRetryConfig{}, &jitter);
  ASSERT_GE(raw, 0);
  std::vector<std::uint8_t> bytes;
  for (const RuntimeMessage& message : {beyond, negative, future}) {
    const std::vector<std::uint8_t> frame = EncodeMessage(message);
    const std::uint32_t n = static_cast<std::uint32_t>(frame.size());
    bytes.insert(bytes.end(), {static_cast<std::uint8_t>(n),
                               static_cast<std::uint8_t>(n >> 8),
                               static_cast<std::uint8_t>(n >> 16),
                               static_cast<std::uint8_t>(n >> 24)});
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  ASSERT_EQ(::send(raw, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  // The coordinator's own event loop accepts the raw connection and reads
  // its frames while it serves the next cycles, and keeps serving the
  // deployment.
  for (int cycle = 1; cycle <= kCycles; ++cycle) {
    ASSERT_TRUE(server.RunCycle()) << "barrier timed out at cycle " << cycle;
  }
  const Counter* corrupt =
      telemetry.registry.GetCounter("socket.corrupt_frames");
  EXPECT_EQ(corrupt->value(), 3);
  EXPECT_EQ(server.ConnectedCount(), kSites);
  server.Shutdown();
  ::close(raw);
  for (std::thread& site : sites) site.join();
  EXPECT_TRUE(sites_ok.load());
}

/// A test-driven site connection: dials the server, says hello as `site`,
/// and reads and writes raw frames.
class RawSite {
 public:
  RawSite(int port, int site) {
    std::uint64_t jitter = 1;
    fd_ = ConnectTcpLoopbackWithRetry(port, SocketRetryConfig{}, &jitter);
    RuntimeMessage hello;
    hello.type = RuntimeMessage::Type::kSiteHello;
    hello.from = site;
    hello.to = kCoordinatorId;
    Write(hello);
  }
  ~RawSite() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }
  void Write(const RuntimeMessage& message) {
    const std::vector<std::uint8_t> frame = EncodeMessage(message);
    const std::uint32_t n = static_cast<std::uint32_t>(frame.size());
    std::vector<std::uint8_t> bytes = {static_cast<std::uint8_t>(n),
                                       static_cast<std::uint8_t>(n >> 8),
                                       static_cast<std::uint8_t>(n >> 16),
                                       static_cast<std::uint8_t>(n >> 24)};
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  /// The frames that arrived within `timeout_ms`.
  std::vector<RuntimeMessage> Read(int timeout_ms) {
    pollfd pfd{fd_, POLLIN, 0};
    std::vector<RuntimeMessage> frames;
    if (::poll(&pfd, 1, timeout_ms) <= 0) return frames;
    std::uint8_t buffer[4096];
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n <= 0) return frames;
    reader_.Append(buffer, static_cast<std::size_t>(n));
    FrameStats stats;
    DrainDecodedFrames(&reader_, &frames, &stats);
    return frames;
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

TEST(ThreadedCoordinatorTest, FramesSpeakOnlyForTheSiteTheirSessionHelloedAs) {
  // Site 1 says hello and then stays silent. Site 0 answers for itself and
  // also forges one heartbeat and one barrier ack as site 1. Taken at their
  // word, the heartbeat would renew site 1's lease and the barrier ack would
  // close the barrier without it; bound to their session, both are dropped
  // and counted, and the deadline-free barrier waits on site 1 until its
  // hard timeout.
  const L2Norm norm;
  Telemetry telemetry;
  CoordinatorServerConfig server_config;
  server_config.num_sites = 2;
  server_config.runtime = ProtocolConfig();
  server_config.runtime.telemetry = &telemetry;
  server_config.barrier_timeout_ms = 1000;
  CoordinatorServer server(norm, server_config);
  ASSERT_TRUE(server.Listen());
  RawSite site0(server.port(), 0);
  RawSite site1(server.port(), 1);
  ASSERT_TRUE(site0.ok() && site1.ok());
  ASSERT_TRUE(server.WaitForSites());

  std::atomic<bool> done{false};
  bool cycle_completed = true;
  std::thread loop([&] {
    cycle_completed = server.RunCycle();
    done = true;
  });
  bool forged_heartbeat = false;
  bool forged_barrier_ack = false;
  while (!done) {
    for (const RuntimeMessage& m : site0.Read(10)) {
      if (m.type != RuntimeMessage::Type::kBarrier) continue;
      RuntimeMessage ack;
      ack.type = RuntimeMessage::Type::kBarrierAck;
      ack.to = kCoordinatorId;
      ack.scalar = m.scalar;
      ack.from = 0;
      site0.Write(ack);
      if (!forged_barrier_ack) {
        forged_barrier_ack = true;
        ack.from = 1;
        site0.Write(ack);
      }
      if (!forged_heartbeat) {
        forged_heartbeat = true;
        RuntimeMessage heartbeat;
        heartbeat.type = RuntimeMessage::Type::kHeartbeat;
        heartbeat.from = 1;
        heartbeat.to = kCoordinatorId;
        site0.Write(heartbeat);
      }
    }
  }
  loop.join();
  EXPECT_TRUE(forged_heartbeat);
  EXPECT_TRUE(forged_barrier_ack);
  EXPECT_FALSE(cycle_completed) << "a forged barrier ack closed the barrier";
  server.PublishMetrics();
  EXPECT_EQ(telemetry.registry.GetCounter("socket.unbound_frames")->value(),
            2);
  EXPECT_EQ(telemetry.registry.GetCounter("socket.corrupt_frames")->value(),
            0);
  server.Shutdown();
}

TEST(ThreadedCoordinatorTest, DuplicateBarrierAckDoesNotStandInForASilentSite) {
  // Site 1 says hello and then stays silent. Site 0 acks every barrier
  // twice, as itself and on its own session. Counted, the second ack would
  // make up for site 1's missing one and close the barrier; read per site,
  // the deadline-free barrier waits on site 1 until its hard timeout.
  const L2Norm norm;
  CoordinatorServerConfig server_config;
  server_config.num_sites = 2;
  server_config.runtime = ProtocolConfig();
  server_config.barrier_timeout_ms = 1000;
  CoordinatorServer server(norm, server_config);
  ASSERT_TRUE(server.Listen());
  RawSite site0(server.port(), 0);
  RawSite site1(server.port(), 1);
  ASSERT_TRUE(site0.ok() && site1.ok());
  ASSERT_TRUE(server.WaitForSites());

  std::atomic<bool> done{false};
  bool cycle_completed = true;
  std::thread loop([&] {
    cycle_completed = server.RunCycle();
    done = true;
  });
  int doubled = 0;
  while (!done) {
    for (const RuntimeMessage& m : site0.Read(10)) {
      if (m.type != RuntimeMessage::Type::kBarrier) continue;
      RuntimeMessage ack;
      ack.type = RuntimeMessage::Type::kBarrierAck;
      ack.from = 0;
      ack.to = kCoordinatorId;
      ack.scalar = m.scalar;
      site0.Write(ack);
      site0.Write(ack);
      ++doubled;
    }
  }
  loop.join();
  EXPECT_GE(doubled, 1);
  EXPECT_FALSE(cycle_completed) << "a duplicate barrier ack closed the barrier";
  server.Shutdown();
}

TEST(ThreadedCoordinatorTest, CycleTakesOnlyTheBarrierRoundsItsRepliesNeed) {
  // A barrier round is owed only for frames that can draw a reply: a quiet
  // cycle and a full sync take one round, a partial sync two (the alarm's
  // probe carries the second barrier) and an escalated full sync three.
  // kResolved and kNewEstimate owe none. A RuntimeDriver on the same
  // inputs classifies each cycle: its epoch bumps once per probe and once
  // per full sync.
  constexpr int kRoundSites = 3;
  constexpr int kRoundCycles = 200;
  const L2Norm norm;
  std::vector<std::vector<Vector>> inputs;
  {
    SyntheticDriftGenerator generator(GeneratorConfig(kRoundSites));
    std::vector<Vector> locals;
    for (int cycle = 0; cycle <= kRoundCycles; ++cycle) {
      generator.Advance(&locals);
      inputs.push_back(locals);
    }
  }
  RuntimeDriver driver(kRoundSites, norm, ProtocolConfig(kRoundSites));
  Telemetry telemetry;
  CoordinatorServerConfig server_config;
  server_config.num_sites = kRoundSites;
  server_config.runtime = ProtocolConfig(kRoundSites);
  server_config.runtime.telemetry = &telemetry;
  CoordinatorServer server(norm, server_config);
  ASSERT_TRUE(server.Listen());
  std::atomic<bool> sites_ok{true};
  std::vector<std::thread> sites;
  for (int id = 0; id < kRoundSites; ++id) {
    sites.emplace_back([id, &norm, &inputs, &sites_ok, port = server.port()] {
      SiteClientConfig config;
      config.site_id = id;
      config.num_sites = kRoundSites;
      config.port = port;
      config.runtime = ProtocolConfig(kRoundSites);
      SiteClient client(norm, config);
      if (!client.Connect() ||
          !client.Run([&](long cycle) { return inputs[cycle][id]; })) {
        sites_ok.store(false);
      }
    });
  }
  ASSERT_TRUE(server.WaitForSites());

  const Counter* rounds =
      telemetry.registry.GetCounter("socket.barrier_rounds");
  long rounds_before = 0;
  int quiet = 0, partial = 0, escalated = 0;
  for (int cycle = 0; cycle <= kRoundCycles; ++cycle) {
    const std::int64_t epoch = driver.coordinator().epoch();
    const long full_syncs = driver.coordinator().full_syncs();
    if (cycle == 0) {
      driver.Initialize(inputs[cycle]);
    } else {
      driver.Tick(inputs[cycle]);
    }
    const long syncs = driver.coordinator().full_syncs() - full_syncs;
    const long probes =
        cycle == 0 ? 0 : driver.coordinator().epoch() - epoch - syncs;
    ASSERT_TRUE(server.RunCycle()) << "barrier timed out at cycle " << cycle;
    ASSERT_EQ(server.Epoch(), driver.coordinator().epoch())
        << "cycle " << cycle;
    const long taken = rounds->value() - rounds_before;
    rounds_before = rounds->value();
    const long owed = 1 + probes + (probes > 0 ? syncs : 0);
    EXPECT_EQ(taken, owed) << "cycle " << cycle << ": " << probes
                           << " probe(s), " << syncs << " full sync(s)";
    if (cycle > 0) {
      quiet += probes == 0 && syncs == 0;
      partial += probes == 1 && syncs == 0;
      escalated += probes == 1 && syncs == 1;
    }
  }
  server.Shutdown();
  for (std::thread& site : sites) site.join();
  EXPECT_TRUE(sites_ok.load());
  std::printf("cycles: %d quiet, %d partial, %d escalated\n", quiet, partial,
              escalated);
  EXPECT_GE(quiet, 1);
  EXPECT_GE(partial, 1);
  EXPECT_GE(escalated, 1);
}

TEST(ThreadedCoordinatorTest, QuietCycleWritesOncePerSite) {
  // Constant vectors: zero drift keeps every g_i at 0, so a cycle draws no
  // trial, no alarm and no grant, and only the session plane moves. The
  // coordinator's kCycleBegin and the barrier behind it leave in one write
  // per site; a site's heartbeat (every ⌈√N⌉ cycles) and its barrier ack
  // leave in one write of its own.
  constexpr int kQuietSites = 3;
  constexpr int kQuietCycles = 100;
  const L2Norm norm;
  RuntimeConfig runtime;
  runtime.threshold = 3.0;  // ‖v‖ = 1 never reaches it
  CoordinatorServerConfig server_config;
  server_config.num_sites = kQuietSites;
  server_config.runtime = runtime;
  CoordinatorServer server(norm, server_config);
  ASSERT_TRUE(server.Listen());

  std::vector<std::unique_ptr<SiteClient>> clients;
  for (int id = 0; id < kQuietSites; ++id) {
    SiteClientConfig config;
    config.site_id = id;
    config.num_sites = kQuietSites;
    config.port = server.port();
    config.runtime = runtime;
    clients.push_back(std::make_unique<SiteClient>(norm, config));
  }
  std::atomic<bool> sites_ok{true};
  std::vector<std::thread> sites;
  for (int id = 0; id < kQuietSites; ++id) {
    sites.emplace_back([id, &clients, &sites_ok] {
      if (!clients[id]->Connect() ||
          !clients[id]->Run([](long) { return Vector(4, 0.5); })) {
        sites_ok.store(false);
      }
    });
  }
  ASSERT_TRUE(server.WaitForSites());
  // The initialization sync and one warm-up cycle.
  ASSERT_TRUE(server.RunCycle());
  ASSERT_TRUE(server.RunCycle());
  const long syncs = server.FullSyncs();
  const long coordinator_before = server.transport().write_calls();
  std::vector<long> site_before;
  for (const auto& client : clients) {
    site_before.push_back(client->transport().write_calls());
  }
  for (int cycle = 0; cycle < kQuietCycles; ++cycle) {
    ASSERT_TRUE(server.RunCycle()) << "barrier timed out at cycle " << cycle;
  }
  const long coordinator_writes =
      server.transport().write_calls() - coordinator_before;
  // A site's count is printed, not gated: TCP may split the coordinator's
  // one write across two recv()s, and the site then answers in two.
  for (int id = 0; id < kQuietSites; ++id) {
    std::printf("site %d: %ld write calls over %d quiet cycles\n", id,
                clients[id]->transport().write_calls() - site_before[id],
                kQuietCycles);
  }
  EXPECT_EQ(server.FullSyncs(), syncs);
  EXPECT_EQ(server.PartialResolutions(), 0);
  server.Shutdown();
  for (std::thread& site : sites) site.join();
  EXPECT_TRUE(sites_ok.load());
  // The coordinator's writes follow its own loop steps alone: one per site
  // per quiet cycle.
  EXPECT_EQ(coordinator_writes, kQuietSites * kQuietCycles);
}

TEST(ThreadedCoordinatorTest, ShutdownWithoutCyclesIsClean) {
  // Degenerate lifecycle: sites register, the server shuts down before any
  // cycle. Every site thread must unwind without a cycle ever running.
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

// Pins what each deployment tier publishes: counter and gauge names and
// values (wall-clock rows excluded) after seeded RuntimeDriver runs, and the
// CoordinatorServer's and a SiteClient's metric name sets. The goldens were
// captured from the two tiers' separate publishers, before they shared one;
// a difference means a tier now publishes another metric set or another
// value.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "functions/l2_norm.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "runtime/checkpoint.h"
#include "runtime/coordinator_server.h"
#include "runtime/driver.h"
#include "runtime/site_client.h"

namespace sgm {
namespace {

constexpr int kSites = 16;

SyntheticDriftConfig Workload(int sites) {
  SyntheticDriftConfig config;
  config.num_sites = sites;
  config.dim = 4;
  config.seed = 31;
  config.global_period = 60;
  config.global_amplitude = 2.5;
  return config;
}

RuntimeConfig Protocol(const StreamSource& source, Telemetry* telemetry) {
  RuntimeConfig config;
  config.threshold = 3.0;
  config.max_step_norm = source.max_step_norm();
  config.drift_norm_cap = source.max_drift_norm();
  config.seed = 7;
  config.telemetry = telemetry;
  return config;
}

bool WallClock(const std::string& name) {
  return name == "obs.telemetry.ns" ||
         (name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0);
}

/// One "counter|gauge name value" line per metric, wall-clock rows excluded.
std::string Rows(const MetricRegistry& registry) {
  std::ostringstream out;
  for (const auto& [name, value] : registry.SnapshotCounters()) {
    if (!WallClock(name)) out << "counter " << name << " " << value << "\n";
  }
  for (const auto& [name, value] : registry.SnapshotGauges()) {
    if (WallClock(name)) continue;
    out << "gauge " << name << " ";
    AppendJsonNumber(out, value);
    out << "\n";
  }
  return out.str();
}

constexpr char kFaultlessRows[] = R"(counter coordinator.degraded_syncs 0
counter coordinator.epoch 14
counter coordinator.full_syncs 7
counter coordinator.late_reports 0
counter coordinator.malformed_reports 0
counter coordinator.partial_resolutions 1
counter coordinator.rejoins_granted 0
counter coordinator.stale_epoch_applied 0
counter coordinator.stale_epoch_drops 0
counter coordinator.sync_rerequests 0
counter degraded.cycles 0
counter degraded.lag_quarantines 0
counter degraded.staleness_cycles_total 0
counter failure.total_deaths 0
counter obs.trace.bytes_written 0
counter obs.trace.events 645
counter obs.trace.recorded 50
counter obs.trace.sampled_out 595
counter site.heartbeats_sent 482
counter site.rejoin_requests_sent 0
counter site.stale_epoch_applied 0
counter site.stale_epoch_drops 0
counter transport.acks_sent 135
counter transport.dedup_evictions 0
counter transport.duplicates_suppressed 0
counter transport.give_ups 0
counter transport.paper_messages 157
counter transport.paper_site_messages 135
counter transport.retransmissions 0
counter transport.total_messages 774
counter transport.tracked_sends 135
gauge degraded.lagging_sites 0
gauge degraded.staleness_cycles_max 0
gauge failure.live_count 16
gauge transport.paper_bytes 6968
gauge transport.total_bytes 16840
)";

constexpr char kFaultyRows[] = R"(counter coordinator.degraded_syncs 2
counter coordinator.epoch 20
counter coordinator.full_syncs 10
counter coordinator.late_reports 16
counter coordinator.malformed_reports 0
counter coordinator.partial_resolutions 2
counter coordinator.rejoins_granted 16
counter coordinator.stale_epoch_applied 0
counter coordinator.stale_epoch_drops 1
counter coordinator.sync_rerequests 0
counter degraded.cycles 10
counter degraded.lag_quarantines 3
counter degraded.staleness_cycles_total 9
counter failure.total_deaths 2
counter obs.ring.dropped 0
counter obs.ring.overwrites 5280
counter obs.ring.recorded 5344
counter obs.trace.bytes_written 0
counter obs.trace.events 5344
counter obs.trace.recorded 5344
counter obs.trace.sampled_out 0
counter recovery.coordinator_crashes 1
counter recovery.down_drops 25
counter recovery.reconcile_grants 16
counter recovery.restores 1
counter recovery.snapshots_discarded 0
counter recovery.snapshots_written 7
counter recovery.torn_wal_bytes 0
counter recovery.wal_records 48
counter recovery.wal_records_replayed 2
counter site.heartbeats_sent 594
counter site.rejoin_requests_sent 0
counter site.stale_epoch_applied 0
counter site.stale_epoch_drops 0
counter transport.acks_sent 1394
counter transport.dedup_evictions 0
counter transport.duplicates_suppressed 684
counter transport.faults_corrupted 0
counter transport.faults_delayed 2238
counter transport.faults_dropped 373
counter transport.faults_duplicated 152
counter transport.give_ups 2
counter transport.paper_messages 234
counter transport.paper_site_messages 203
counter transport.retransmissions 784
counter transport.total_messages 3175
counter transport.tracked_sends 251
gauge degraded.lagging_sites 0
gauge degraded.staleness_cycles_max 4
gauge failure.live_count 16
gauge transport.paper_bytes 10360
gauge transport.total_bytes 72432
)";

constexpr char kServerNames[] = R"(counter coordinator.degraded_syncs
counter coordinator.epoch
counter coordinator.full_syncs
counter coordinator.late_reports
counter coordinator.malformed_reports
counter coordinator.partial_resolutions
counter coordinator.rejoins_granted
counter coordinator.stale_epoch_applied
counter coordinator.stale_epoch_drops
counter coordinator.sync_rerequests
counter degraded.cycles
counter degraded.lag_quarantines
counter degraded.staleness_cycles_total
counter failure.total_deaths
counter obs.telemetry.ns
counter obs.trace.bytes_written
counter obs.trace.events
counter obs.trace.recorded
counter obs.trace.sampled_out
counter recovery.reconcile_grants
counter recovery.restores
counter recovery.snapshots_discarded
counter recovery.snapshots_written
counter recovery.torn_wal_bytes
counter recovery.wal_records
counter recovery.wal_records_replayed
counter socket.barrier_rounds
counter socket.corrupt_frames
counter socket.send_failures
counter socket.send_queue_drops
counter socket.session_frames
counter socket.short_writes
counter socket.site_disconnects
counter socket.site_rehellos
counter socket.unbound_frames
counter socket.write_calls
counter transport.paper_messages
counter transport.paper_site_messages
counter transport.total_messages
gauge degraded.lagging_sites
gauge degraded.staleness_cycles_max
gauge failure.live_count
gauge socket.connected_sites
gauge socket.send_queue_depth
gauge transport.paper_bytes
gauge transport.total_bytes
)";

TEST(MetricGoldenTest, FaultlessDriverPublishesTheSameRows) {
  Telemetry telemetry;
  SyntheticDriftGenerator source(Workload(kSites));
  RuntimeConfig config = Protocol(source, &telemetry);
  config.trace_sample_rate = 0.1;
  const L2Norm norm;
  RuntimeDriver driver(kSites, norm, config);
  std::vector<Vector> locals;
  source.Advance(&locals);
  driver.Initialize(locals);
  for (int t = 0; t < 120; ++t) {
    source.Advance(&locals);
    driver.Tick(locals);
  }
  EXPECT_EQ(Rows(telemetry.registry), kFaultlessRows);
}

// Faults, a crashed site, a crashed and recovered coordinator (publishing
// while it is down), barrier lag, a checkpoint store and a flight recorder:
// every conditional row of the driver's publisher.
TEST(MetricGoldenTest, FaultyDriverWithCheckpointsPublishesTheSameRows) {
  Telemetry telemetry;
  FlightRecorder ring(64);
  telemetry.trace.AttachFlightRecorder(&ring);
  InMemoryCheckpointStore store;
  SyntheticDriftGenerator source(Workload(kSites));
  RuntimeConfig config = Protocol(source, &telemetry);
  config.checkpoint_store = &store;
  SimTransportConfig faults;
  faults.seed = 5;
  faults.drop_probability = 0.1;
  faults.duplicate_probability = 0.05;
  faults.max_delay_rounds = 2;
  const L2Norm norm;
  RuntimeDriver driver(kSites, norm, config, faults);
  std::vector<Vector> locals;
  source.Advance(&locals);
  driver.Initialize(locals);
  for (int t = 1; t <= 150; ++t) {
    source.Advance(&locals);
    if (t == 20) driver.sim_transport()->CrashSite(3);
    if (t == 45) driver.sim_transport()->RecoverSite(3);
    if (t == 60) driver.CrashCoordinator();
    driver.Tick(locals);
    if (t == 66) driver.RecoverCoordinator();
    driver.ReportBarrierLag(t >= 90 && t < 100 ? std::vector<int>{5}
                                               : std::vector<int>{});
  }
  driver.PublishMetrics();
  EXPECT_EQ(Rows(telemetry.registry), kFaultyRows);
}

constexpr char kSiteClientNames[] = R"(counter site.heartbeats_sent
counter site.reconnects
counter site.rejoin_requests_sent
counter site.stale_epoch_applied
counter site.stale_epoch_drops
counter socket.send_failures
counter socket.send_queue_drops
counter socket.session_frames
counter socket.short_writes
counter socket.write_calls
counter transport.total_messages
gauge transport.total_bytes
)";

/// One "counter|gauge name" line per metric.
std::string Names(const MetricRegistry& registry) {
  std::ostringstream names;
  for (const auto& [name, value] : registry.SnapshotCounters()) {
    names << "counter " << name << "\n";
  }
  for (const auto& [name, value] : registry.SnapshotGauges()) {
    names << "gauge " << name << "\n";
  }
  return names.str();
}

/// Runs a 3-site loopback deployment through its initialization sync and
/// 10 cycles, with `server_telemetry` on the coordinator and
/// `site_telemetry` on site 0 (either may be null), then shuts it down.
/// Returns site 0's client, its run over.
std::unique_ptr<SiteClient> RunLoopbackDeployment(Telemetry* server_telemetry,
                                                  Telemetry* site_telemetry) {
  constexpr int kServerSites = 3;
  SyntheticDriftGenerator probe(Workload(kServerSites));
  CoordinatorServerConfig server_config;
  server_config.num_sites = kServerSites;
  server_config.runtime = Protocol(probe, server_telemetry);
  const L2Norm norm;
  CoordinatorServer server(norm, server_config);
  EXPECT_TRUE(server.Listen());
  std::vector<std::unique_ptr<SiteClient>> clients;
  for (int id = 0; id < kServerSites; ++id) {
    SiteClientConfig config;
    config.site_id = id;
    config.num_sites = kServerSites;
    config.port = server.port();
    config.runtime = Protocol(probe, id == 0 ? site_telemetry : nullptr);
    clients.push_back(std::make_unique<SiteClient>(norm, config));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int id = 0; id < kServerSites; ++id) {
    threads.emplace_back([&, id] {
      SyntheticDriftGenerator generator(Workload(kServerSites));
      if (!clients[id]->Connect()) {
        failures.fetch_add(1);
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
        failures.fetch_add(1);
      }
    });
  }
  if (server.WaitForSites()) {
    for (int cycle = 0; cycle <= 10; ++cycle) EXPECT_TRUE(server.RunCycle());
  } else {
    ADD_FAILURE() << "not all sites registered";
  }
  server.Shutdown();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.PublishMetrics();
  return std::move(clients[0]);
}

TEST(MetricGoldenTest, CoordinatorServerPublishesTheSameNames) {
  Telemetry telemetry;
  RunLoopbackDeployment(&telemetry, nullptr);
  EXPECT_EQ(Names(telemetry.registry), kServerNames);
}

TEST(MetricGoldenTest, SiteClientPublishesItsCountersUnderTheDriversNames) {
  Telemetry telemetry;
  const std::unique_ptr<SiteClient> client =
      RunLoopbackDeployment(nullptr, &telemetry);
  EXPECT_EQ(Names(telemetry.registry), kSiteClientNames);
  // Published when the loop ended: the values the run left.
  MetricRegistry& registry = telemetry.registry;
  EXPECT_EQ(registry.GetCounter("site.heartbeats_sent")->value(),
            client->node().audit().heartbeats_sent);
  EXPECT_GT(client->node().audit().heartbeats_sent, 0);
  EXPECT_EQ(registry.GetCounter("socket.write_calls")->value(),
            client->transport().write_calls());
  EXPECT_GT(client->transport().write_calls(), 0);
  EXPECT_EQ(registry.GetCounter("transport.total_messages")->value(),
            client->transport().transport_messages_sent());
  // The site's session frames are its hello and its barrier acks.
  EXPECT_EQ(registry.GetCounter("socket.session_frames")->value(),
            client->transport().session_frames_sent());
  EXPECT_GT(client->transport().session_frames_sent(), 0);
  EXPECT_EQ(registry.GetCounter("site.reconnects")->value(), 0);
}

}  // namespace
}  // namespace sgm

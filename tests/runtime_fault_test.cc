// Fault-tolerance tests of the runtime: lossy transports, dead sites, and
// the coordinator's degraded-sync fallback, driven through the seeded
// SimTransport fault layer (see docs/TESTING.md); and hostile frames, which
// pass their CRC but carry values no honest node sends.

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "functions/l2_norm.h"
#include "runtime/checkpoint.h"
#include "runtime/driver.h"

namespace sgm {
namespace {

RuntimeConfig Config(double threshold, double step = 10.0) {
  RuntimeConfig config;
  config.threshold = threshold;
  config.max_step_norm = step;
  return config;
}

/// Site→coordinator loss only, like a flaky uplink; the coordinator's
/// broadcasts stay reliable (the historical fault model of these tests).
SimTransportConfig UplinkLoss(double drop, std::uint64_t seed = 1234) {
  SimTransportConfig sim;
  sim.seed = seed;
  sim.drop_probability = drop;
  sim.fault_coordinator_links = false;
  return sim;
}

TEST(RuntimeFaultTest, DeadSiteDegradesButCompletesSync) {
  const L2Norm norm;
  RuntimeDriver driver(4, norm, Config(3.0), SimTransportConfig{});
  // Healthy initialization (everyone reports once)...
  driver.Initialize({Vector{1.0, 0.0}, Vector{1.0, 0.0}, Vector{1.0, 0.0},
                     Vector{1.0, 0.0}});
  EXPECT_EQ(driver.coordinator().full_syncs(), 1);
  EXPECT_EQ(driver.coordinator().degraded_syncs(), 0);

  // ...then site 3 dies and a true crossing forces a full sync: the
  // coordinator must complete it from site 3's last-known vector.
  driver.sim_transport()->CrashSite(3);
  for (int t = 0; t < 6 && !driver.coordinator().BelievesAbove(); ++t) {
    driver.Tick({Vector{6.0, 0.0}, Vector{6.0, 0.0}, Vector{6.0, 0.0},
                 Vector{6.0, 0.0}});
  }
  EXPECT_TRUE(driver.coordinator().BelievesAbove());
  EXPECT_GE(driver.coordinator().degraded_syncs(), 1);
  // Estimate uses (6+6+6+1)/4 for the first degraded sync.
  EXPECT_GT(driver.coordinator().estimate()[0], 3.0);
}

TEST(RuntimeFaultTest, LossySyncStillConverges) {
  const L2Norm norm;
  RuntimeDriver driver(20, norm, Config(3.0), UplinkLoss(0.3));
  std::vector<Vector> locals(20, Vector{1.0, 0.0});
  driver.Initialize(locals);

  for (auto& v : locals) v = Vector{5.0, 0.0};
  for (int t = 0; t < 20 && !driver.coordinator().BelievesAbove(); ++t) {
    driver.Tick(locals);
  }
  EXPECT_TRUE(driver.coordinator().BelievesAbove());
  EXPECT_GT(driver.sim_transport()->dropped_messages(), 0);
}

TEST(RuntimeFaultTest, LostViolationOnlyDelaysDetection) {
  // Even when the very first violation messages are dropped, later cycles
  // re-raise the alarm (sites re-sample each cycle) and detection lands.
  const L2Norm norm;
  RuntimeDriver driver(10, norm, Config(2.5), UplinkLoss(0.8));
  std::vector<Vector> locals(10, Vector{1.0, 0.0});
  driver.Initialize(locals);

  for (auto& v : locals) v = Vector{6.0, 0.0};
  bool detected = false;
  for (int t = 0; t < 200 && !detected; ++t) {
    driver.Tick(locals);
    detected = driver.coordinator().BelievesAbove();
  }
  EXPECT_TRUE(detected);
}

TEST(RuntimeFaultTest, CrashedSiteRecoversAndRejoins) {
  const L2Norm norm;
  RuntimeDriver driver(4, norm, Config(3.0), SimTransportConfig{});
  std::vector<Vector> locals(4, Vector{1.0, 0.0});
  driver.Initialize(locals);

  driver.sim_transport()->CrashSite(2);
  for (int t = 0; t < 3; ++t) driver.Tick(locals);
  driver.sim_transport()->RecoverSite(2);

  // After recovery a genuine crossing is detected with a clean (not
  // degraded) sync: the recovered site reports fresh state again.
  const long degraded_before = driver.coordinator().degraded_syncs();
  for (auto& v : locals) v = Vector{6.0, 0.0};
  for (int t = 0; t < 6 && !driver.coordinator().BelievesAbove(); ++t) {
    driver.Tick(locals);
  }
  EXPECT_TRUE(driver.coordinator().BelievesAbove());
  EXPECT_EQ(driver.coordinator().degraded_syncs(), degraded_before);
}

// ── Hostile frames: CRC-valid, malformed content ─────────────────────────

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A coordinator of three sites on a bare bus, fed one message at a time the
/// way CoordinatorServer::HandleFrame feeds it decoded frames.
class HostileReportTest : public ::testing::Test {
 protected:
  HostileReportTest() : coordinator_(3, norm_, Config(3.0), &bus_) {}

  void Send(RuntimeMessage::Type type, int site, Vector payload = {},
            double scalar = 0.0) {
    RuntimeMessage m;
    m.type = type;
    m.from = site;
    m.to = kCoordinatorId;
    m.epoch = coordinator_.epoch();
    m.payload = std::move(payload);
    m.scalar = scalar;
    coordinator_.OnMessage(m);
  }
  void Report(int site, Vector v) {
    Send(RuntimeMessage::Type::kStateReport, site, std::move(v));
  }
  void Drift(int site, Vector drift, double g) {
    Send(RuntimeMessage::Type::kDriftReport, site, std::move(drift), g);
  }
  /// Opens a probe round in a fresh cycle.
  void Alarm() {
    coordinator_.BeginCycle();
    Send(RuntimeMessage::Type::kLocalViolation, 0);
  }
  /// The initialization sync: every site reports (1, 0), so e = (1, 0) and
  /// ε_T = 2 under T = 3.
  void Initialize() {
    coordinator_.Start();
    for (int site = 0; site < 3; ++site) Report(site, Vector{1.0, 0.0});
    ASSERT_EQ(coordinator_.full_syncs(), 1);
  }
  long malformed() const { return coordinator_.audit().malformed_reports; }

  L2Norm norm_;
  InMemoryBus bus_;
  CoordinatorNode coordinator_;
};

TEST_F(HostileReportTest, DriftReportsTheFoldCannotUseAreDropped) {
  Initialize();
  // Each probe holds one malformed report and an honest small drift. The
  // honest report alone resolves the probe; the g > 1 report, folded with
  // weight 1/g, would pull v̂ across T and force a full sync; the others
  // would abort the fold.
  const std::pair<double, Vector> hostile[] = {
      {0.0, Vector{0.5, 0.0}},        {-0.5, Vector{0.5, 0.0}},
      {kNaN, Vector{0.5, 0.0}},       {kInf, Vector{0.5, 0.0}},
      {1.5, Vector{100.0, 0.0}},      {0.5, Vector{0.5, 0.0, 0.0}},
      {0.5, Vector()},
  };
  long probes = 0;
  for (const auto& [g, drift] : hostile) {
    SCOPED_TRACE(::testing::Message() << "g=" << g << " dim=" << drift.dim());
    Alarm();
    Drift(0, drift, g);
    Drift(1, Vector{0.1, 0.0}, 0.5);
    coordinator_.OnQuiescent();
    ++probes;
    EXPECT_EQ(malformed(), probes);
    EXPECT_EQ(coordinator_.partial_resolutions(), probes);
    EXPECT_EQ(coordinator_.full_syncs(), 1);
  }
}

TEST_F(HostileReportTest, StateReportOfTheWrongDimensionCountsAsLost) {
  Initialize();
  // A drift that crosses T escalates the probe to a full collection.
  Alarm();
  Drift(0, Vector{10.0, 0.0}, 1.0);
  coordinator_.OnQuiescent();
  Report(0, Vector{1.0, 0.0});
  Report(1, Vector{1.0, 0.0});
  Report(2, Vector{1.0, 0.0, 0.0});
  EXPECT_EQ(malformed(), 1);
  EXPECT_EQ(coordinator_.full_syncs(), 1);  // site 2 still outstanding
  // The straggler machinery re-requests it like a lost report.
  coordinator_.OnQuiescent();
  EXPECT_EQ(coordinator_.audit().sync_rerequests, 1);
  Report(2, Vector{4.0, 0.0});
  EXPECT_EQ(coordinator_.full_syncs(), 2);
  EXPECT_EQ(coordinator_.degraded_syncs(), 0);
  EXPECT_EQ(coordinator_.estimate(), (Vector{2.0, 0.0}));
}

TEST_F(HostileReportTest, FirstStateReportSetsTheDimensionBeforeAnySync) {
  coordinator_.Start();
  Report(0, Vector{1.0, 2.0, 3.0});
  Report(1, Vector{1.0, 2.0});  // the first report fixed d = 3
  Report(1, Vector());
  Report(2, Vector{1.0, 2.0, 3.0});
  EXPECT_EQ(malformed(), 2);
  coordinator_.OnQuiescent();  // re-requests site 1
  Report(1, Vector{4.0, 5.0, 6.0});
  EXPECT_EQ(coordinator_.full_syncs(), 1);
  EXPECT_EQ(coordinator_.degraded_syncs(), 0);
  EXPECT_EQ(coordinator_.estimate(), (Vector{2.0, 3.0, 4.0}));
}

// A collection the previous cycle left open (a straggler's re-request found
// no route, so the transport went quiet with the round unfinished) closes at
// the next BeginCycle over the reports it has: a degraded sync, committed as
// one, with its follow-up resync. The straggler's report, arriving in the
// new cycle, only refreshes its last-known vector instead of completing the
// round as a clean sync over vectors from two cycles.
TEST(RuntimeFaultTest, CollectionLeftOpenAtCycleEndCompletesDegraded) {
  const L2Norm norm;
  InMemoryCheckpointStore store;
  RuntimeConfig config = Config(3.0);
  config.checkpoint_store = &store;
  InMemoryBus bus;
  CoordinatorNode coordinator(3, norm, config, &bus);
  const auto report = [&coordinator](int site) {
    RuntimeMessage m;
    m.type = RuntimeMessage::Type::kStateReport;
    m.from = site;
    m.to = kCoordinatorId;
    m.epoch = coordinator.epoch();
    m.payload = Vector{1.0, 0.0};
    coordinator.OnMessage(m);
  };
  coordinator.Start();
  report(0);
  report(1);
  ASSERT_EQ(coordinator.full_syncs(), 0);

  coordinator.BeginCycle();
  EXPECT_EQ(coordinator.full_syncs(), 1);
  EXPECT_EQ(coordinator.degraded_syncs(), 1);
  report(2);
  EXPECT_EQ(coordinator.full_syncs(), 1);
  EXPECT_EQ(coordinator.degraded_syncs(), 1);
  EXPECT_EQ(coordinator.audit().late_reports, 1);

  // The WAL commit carries the degraded count.
  const Result<Reconstruction> rebuilt = ReconstructCoordinatorState(store);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt.ValueOrDie().state.full_syncs, 1);
  EXPECT_EQ(rebuilt.ValueOrDie().state.degraded_syncs, 1);

  // The follow-up resync opens kDegradedResyncCycles cycles after the
  // round's own cycle, the first BeginCycle above included.
  const std::int64_t epoch = coordinator.epoch();
  for (int c = 2; c < CoordinatorNode::kDegradedResyncCycles; ++c) {
    coordinator.BeginCycle();
    EXPECT_EQ(coordinator.epoch(), epoch) << "cycle " << c;
  }
  coordinator.BeginCycle();
  EXPECT_EQ(coordinator.epoch(), epoch + 1);
}

// A lagging site is alive and its stream moves on, but the vector the
// coordinator holds for it predates its quarantine. A degraded sync leaves
// that vector out rather than average it with this round's reports.
TEST(RuntimeFaultTest, DegradedSyncLeavesOutALaggingSitesVector) {
  const L2Norm norm;
  InMemoryBus bus;
  CoordinatorNode coordinator(3, norm, Config(3.0), &bus);
  const auto send = [&coordinator](RuntimeMessage::Type type, int site,
                                   Vector payload, double scalar = 0.0) {
    RuntimeMessage m;
    m.type = type;
    m.from = site;
    m.to = kCoordinatorId;
    m.epoch = coordinator.epoch();
    m.payload = std::move(payload);
    m.scalar = scalar;
    coordinator.OnMessage(m);
  };
  const auto report = [&send](int site, Vector v) {
    send(RuntimeMessage::Type::kStateReport, site, std::move(v));
  };
  coordinator.Start();
  report(0, Vector{1.0, 0.0});
  report(1, Vector{1.0, 0.0});
  report(2, Vector{-2.0, 0.0});
  ASSERT_EQ(coordinator.full_syncs(), 1);

  bool quarantined = false;
  for (int miss = 0; miss < 10 && !quarantined; ++miss) {
    quarantined = coordinator.OnBarrierDeadlineMissed(2);
  }
  ASSERT_TRUE(quarantined);

  // A drift across T escalates the probe to a collection that waits on the
  // two live sites only.
  coordinator.BeginCycle();
  send(RuntimeMessage::Type::kLocalViolation, 0, Vector());
  send(RuntimeMessage::Type::kDriftReport, 0, Vector{10.0, 0.0}, 1.0);
  coordinator.OnQuiescent();
  report(0, Vector{4.0, 0.0});
  report(1, Vector{4.0, 0.0});
  coordinator.OnQuiescent();
  EXPECT_EQ(coordinator.full_syncs(), 2);
  EXPECT_EQ(coordinator.degraded_syncs(), 1);
  // Not (4 + 4 − 2)/3 = 2, which would sit below T.
  EXPECT_EQ(coordinator.estimate(), (Vector{4.0, 0.0}));
  EXPECT_TRUE(coordinator.BelievesAbove());
}

TEST(RuntimeFaultTest, InvalidMuteLengthLeavesTheSiteMonitoring) {
  // A lone site (N = 1, so g clamps to 1) anchored at e = (1, 0) under T = 3
  // alarms on a 10-unit drift unless muted.
  const L2Norm norm;
  const auto alarms_after_resolution = [&](double mute) {
    InMemoryBus bus;
    SiteNode site(0, 1, norm, Config(3.0), &bus);
    site.Observe(Vector{1.0, 0.0});
    RuntimeMessage anchor;
    anchor.type = RuntimeMessage::Type::kNewEstimate;
    anchor.to = 0;
    anchor.epoch = 1;
    anchor.payload = Vector{1.0, 0.0};
    anchor.scalar = 2.0;
    site.OnMessage(anchor);
    RuntimeMessage resolved;
    resolved.type = RuntimeMessage::Type::kResolved;
    resolved.to = kBroadcastId;
    resolved.epoch = 1;
    resolved.scalar = mute;
    site.OnMessage(resolved);
    while (!bus.empty()) bus.Pop();
    site.Observe(Vector{11.0, 0.0});
    bool alarmed = false;
    while (!bus.empty()) {
      alarmed = alarmed || bus.Pop().type ==
                               RuntimeMessage::Type::kLocalViolation;
    }
    return alarmed;
  };
  EXPECT_FALSE(alarms_after_resolution(5.0));  // a valid mute holds
  EXPECT_TRUE(alarms_after_resolution(0.0));
  for (const double mute : {kNaN, -1.0, 1e300, kInf}) {
    EXPECT_TRUE(alarms_after_resolution(mute)) << "mute " << mute;
  }
}

TEST(WireCountTest, ReadsNonnegativeCountsAndRejectsTheRest) {
  EXPECT_EQ(WireCount(0.0), 0);
  EXPECT_EQ(WireCount(-0.0), 0);
  EXPECT_EQ(WireCount(0.99), 0);
  EXPECT_EQ(WireCount(1.0), 1);
  EXPECT_EQ(WireCount(42.7), 42);
  // The largest double below 2^63 converts exactly; 2^63 itself does not
  // fit a 64-bit long.
  const double two_63 = std::ldexp(1.0, 63);
  EXPECT_EQ(WireCount(std::nextafter(two_63, 0.0)), 9223372036854774784L);
  EXPECT_EQ(WireCount(two_63), std::nullopt);
  EXPECT_EQ(WireCount(1e300), std::nullopt);
  EXPECT_EQ(WireCount(kInf), std::nullopt);
  EXPECT_EQ(WireCount(-kInf), std::nullopt);
  EXPECT_EQ(WireCount(kNaN), std::nullopt);
  EXPECT_EQ(WireCount(-1.0), std::nullopt);
  EXPECT_EQ(WireCount(-0.5), std::nullopt);
}

}  // namespace
}  // namespace sgm

// Runtime-level tests of the reliability layer: epoch fencing at both node
// types, heartbeat liveness (staggered slots, detection latency in missed
// beats, proof of anchor), the named resync/retry configuration knobs, and
// the crash → rejoin → reconverge path (see docs/DESIGN.md).

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "functions/l2_norm.h"
#include "runtime/driver.h"
#include "test_util.h"

namespace sgm {
namespace {

RuntimeConfig Config(double threshold, double step = 10.0) {
  RuntimeConfig config;
  config.threshold = threshold;
  config.max_step_norm = step;
  return config;
}

TEST(RuntimeReliabilityTest, NamedConfigDefaultsAreDocumentedValues) {
  // These defaults and the coordinator's retry/resync constants are
  // load-bearing (docs/DESIGN.md); changing one is a deliberate, reviewed act.
  const RuntimeConfig config;
  EXPECT_EQ(CoordinatorNode::kEmptyCollectionRetryCycles, 1);
  EXPECT_EQ(CoordinatorNode::kDegradedResyncCycles, 5);
  EXPECT_EQ(CoordinatorNode::kMaxSyncRetries, 2);
  EXPECT_EQ(CoordinatorNode::kRejoinResyncCycles, 2);
  EXPECT_EQ(config.failure_detector.suspect_after_misses, 3);
  EXPECT_EQ(config.failure_detector.dead_after_misses, 6);
  EXPECT_EQ(config.reliability.max_retransmits, 4);
  EXPECT_EQ(config.reliability.max_in_flight_per_peer, 256);
  EXPECT_EQ(config.reliability.dedup_window, 1024);
  EXPECT_EQ(config.failure_detector.threshold_jitter, 0.0);
  EXPECT_EQ(config.checkpoint_store, nullptr);
  EXPECT_EQ(config.checkpoint_interval_cycles, 25);
  EXPECT_EQ(CoordinatorNode::kRecoveryResyncCycles, 2);
}

TEST(RuntimeReliabilityTest, EpochAdvancesWithEverySyncRound) {
  const L2Norm norm;
  RuntimeDriver driver(4, norm, Config(3.0));
  std::vector<Vector> locals(4, Vector{1.0, 0.0});
  driver.Initialize(locals);
  EXPECT_EQ(driver.coordinator().epoch(), 1);  // the initialization round
  for (int i = 0; i < 4; ++i) EXPECT_EQ(driver.site(i).epoch(), 1);

  // A true crossing: probe round (+1), then full sync round (+1).
  for (auto& v : locals) v = Vector{6.0, 0.0};
  for (int t = 0; t < 6 && !driver.coordinator().BelievesAbove(); ++t) {
    driver.Tick(locals);
  }
  ASSERT_TRUE(driver.coordinator().BelievesAbove());
  EXPECT_GE(driver.coordinator().epoch(), 3);
  // Reliable fan-out: every site ends the cycle on the coordinator's epoch.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(driver.site(i).epoch(), driver.coordinator().epoch());
    EXPECT_TRUE(driver.site(i).anchored());
  }
}

TEST(RuntimeReliabilityTest, SiteDropsStaleEpochMessages) {
  const L2Norm norm;
  InMemoryBus bus;
  const RuntimeConfig config = Config(3.0);
  SiteNode site(0, 2, norm, config, &bus);

  RuntimeMessage anchor;
  anchor.type = RuntimeMessage::Type::kNewEstimate;
  anchor.from = kCoordinatorId;
  anchor.to = kBroadcastId;
  anchor.epoch = 3;
  anchor.payload = Vector{1.0, 0.0};
  anchor.scalar = 2.0;
  site.OnMessage(anchor);
  ASSERT_EQ(site.epoch(), 3);
  const Vector anchored_estimate = site.estimate();

  // A stale round's estimate (epoch 2) must be dropped, not applied.
  anchor.epoch = 2;
  anchor.payload = Vector{9.0, 9.0};
  site.OnMessage(anchor);
  EXPECT_EQ(site.audit().stale_epoch_drops, 1);
  EXPECT_EQ(site.audit().stale_epoch_applied, 0);
  EXPECT_EQ(site.epoch(), 3);
  EXPECT_EQ(site.estimate()[0], anchored_estimate[0]);
}

TEST(RuntimeReliabilityTest, EpochGapUnanchorsAndRequestsRejoin) {
  const L2Norm norm;
  InMemoryBus bus;
  SiteNode site(0, 2, norm, Config(3.0), &bus);

  RuntimeMessage anchor;
  anchor.type = RuntimeMessage::Type::kNewEstimate;
  anchor.from = kCoordinatorId;
  anchor.to = kBroadcastId;
  anchor.epoch = 1;
  anchor.payload = Vector{1.0, 0.0};
  site.OnMessage(anchor);
  ASSERT_TRUE(site.anchored());
  while (!bus.empty()) bus.Pop();

  // Epoch 1 → 4: the site missed whole rounds. It must stop monitoring
  // against the stale anchor and ask to be resynchronized.
  RuntimeMessage probe;
  probe.type = RuntimeMessage::Type::kProbeRequest;
  probe.from = kCoordinatorId;
  probe.to = kBroadcastId;
  probe.epoch = 4;
  site.OnMessage(probe);
  EXPECT_FALSE(site.anchored());
  EXPECT_EQ(site.epoch(), 4);
  EXPECT_EQ(site.audit().rejoin_requests_sent, 1);
  ASSERT_FALSE(bus.empty());
  EXPECT_EQ(bus.Pop().type, RuntimeMessage::Type::kRejoinRequest);

  // A grant re-anchors and completes the handshake with fresh state.
  RuntimeMessage grant;
  grant.type = RuntimeMessage::Type::kRejoinGrant;
  grant.from = kCoordinatorId;
  grant.to = 0;
  grant.epoch = 4;
  grant.payload = Vector{2.0, 0.0};
  grant.scalar = 1.0;
  site.OnMessage(grant);
  EXPECT_TRUE(site.anchored());
  ASSERT_FALSE(bus.empty());
  EXPECT_EQ(bus.Pop().type, RuntimeMessage::Type::kStateReport);
}

TEST(RuntimeReliabilityTest, HeartbeatsKeepQuietSitesAlive) {
  const L2Norm norm;
  // Far-below-threshold workload: sites never alarm, so without heartbeats
  // the failure detector would suspect the whole quiet fleet.
  RuntimeDriver driver(6, norm, Config(1000.0));
  std::vector<Vector> locals(6, Vector{1.0, 0.0});
  driver.Initialize(locals);
  for (int t = 0; t < 30; ++t) driver.Tick(locals);

  const FailureDetector& fd = driver.coordinator().failure_detector();
  EXPECT_EQ(fd.live_count(), 6);
  EXPECT_EQ(fd.total_deaths(), 0);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(fd.state(i), FailureDetector::State::kAlive);
    EXPECT_GT(driver.site(i).audit().heartbeats_sent, 0);
  }
}

TEST(RuntimeReliabilityTest, DefaultHeartbeatCadenceConstructs) {
  const L2Norm norm;
  const RuntimeDriver driver(6, norm, Config(1000.0));
  EXPECT_EQ(driver.coordinator().failure_detector().live_count(), 6);
}

TEST(RuntimeReliabilityTest, QuietRecoveryRevivesWithoutAGrant) {
  const L2Norm norm;
  RuntimeConfig config = Config(1000.0);  // quiet: no sync rounds happen
  config.failure_detector.suspect_after_misses = 2;
  config.failure_detector.dead_after_misses = 4;
  RuntimeDriver driver(4, norm, config, SimTransportConfig{});
  std::vector<Vector> locals(4, Vector{1.0, 0.0});
  driver.Initialize(locals);
  // Misses are beats of H = 2 cycles at four sites.
  const int h = driver.coordinator().failure_detector().heartbeat_interval();
  ASSERT_EQ(h, 2);

  driver.sim_transport()->CrashSite(2);
  for (int t = 0; t < 6 * h; ++t) driver.Tick(locals);
  EXPECT_EQ(driver.coordinator().failure_detector().state(2),
            FailureDetector::State::kDead);
  EXPECT_EQ(driver.coordinator().failure_detector().live_count(), 3);

  driver.sim_transport()->RecoverSite(2);
  for (int t = 0; t < 6 * h; ++t) driver.Tick(locals);
  // No epoch advanced while the site was down: its first heartbeat carries
  // the *current* epoch, so it missed nothing and is revived directly —
  // no rejoin handshake, no resync churn.
  EXPECT_EQ(driver.coordinator().audit().rejoins_granted, 0);
  EXPECT_EQ(driver.coordinator().failure_detector().state(2),
            FailureDetector::State::kAlive);
  EXPECT_EQ(driver.coordinator().failure_detector().live_count(), 4);
  EXPECT_TRUE(driver.site(2).anchored());
}

// Staggered slots: site i beats when (c + i) mod H = 0 on its c-th cycle,
// so a quiet, faultless fleet carries at most ⌈N/H⌉ standalone heartbeats a
// cycle, every site beats within every H cycles, and the detector never
// reads the cadence as a failure.
TEST(RuntimeReliabilityTest, StaggeredHeartbeatsSpreadEvenlyAcrossCycles) {
  const L2Norm norm;
  for (const int n : {16, 128, 2048}) {
    SCOPED_TRACE(::testing::Message() << n << " sites");
    RuntimeDriver driver(n, norm, Config(1000.0));
    std::vector<Vector> locals(n, Vector{1.0, 0.0});
    driver.Initialize(locals);
    const FailureDetector& fd = driver.coordinator().failure_detector();
    const long h = HeartbeatIntervalCycles(n);
    ASSERT_EQ(fd.heartbeat_interval(), h);
    const long cap = (n + h - 1) / h;
    std::vector<long> sent(n);
    std::vector<long> last_beat(n, 0);
    for (int i = 0; i < n; ++i) sent[i] = driver.site(i).audit().heartbeats_sent;
    for (long t = 1; t <= 4 * h; ++t) {
      driver.Tick(locals);
      long beats = 0;
      for (int i = 0; i < n; ++i) {
        const long now = driver.site(i).audit().heartbeats_sent;
        if (now > sent[i]) {
          beats += now - sent[i];
          sent[i] = now;
          last_beat[i] = t;
        }
        if (t >= h) {
          ASSERT_LT(t - last_beat[i], h) << "site " << i << " cycle " << t;
        }
        ASSERT_EQ(fd.state(i), FailureDetector::State::kAlive)
            << "site " << i << " cycle " << t;
      }
      ASSERT_LE(beats, cap) << "cycle " << t;
    }
  }
}

// Detection latency in a fully quiet period: a crashed site is suspected
// exactly when its silence exceeds suspect_after_misses beats of H cycles,
// and declared dead exactly when it exceeds dead_after_misses beats.
TEST(RuntimeReliabilityTest, CrashedQuietSiteIsDetectedAfterItsMissedBeats) {
  const L2Norm norm;
  const RuntimeConfig config = Config(1000.0);  // no threshold jitter
  ASSERT_EQ(config.failure_detector.threshold_jitter, 0.0);
  for (const int n : {4, 128}) {
    SCOPED_TRACE(::testing::Message() << n << " sites");
    RuntimeDriver driver(n, norm, config, SimTransportConfig{});
    std::vector<Vector> locals(n, Vector{1.0, 0.0});
    driver.Initialize(locals);
    const FailureDetector& fd = driver.coordinator().failure_detector();
    const long h = fd.heartbeat_interval();
    const long suspect = config.failure_detector.suspect_after_misses * h;
    const long dead = config.failure_detector.dead_after_misses * h;
    // Crash the victim right after a beat: the coordinator last heard from
    // it in that cycle.
    const int victim = n / 2;
    const long beats = driver.site(victim).audit().heartbeats_sent;
    while (driver.site(victim).audit().heartbeats_sent == beats) {
      driver.Tick(locals);
    }
    driver.sim_transport()->CrashSite(victim);
    for (long silent = 1; silent <= dead + 1; ++silent) {
      driver.Tick(locals);
      const FailureDetector::State expected =
          silent <= suspect ? FailureDetector::State::kAlive
          : silent <= dead  ? FailureDetector::State::kSuspect
                            : FailureDetector::State::kDead;
      ASSERT_EQ(fd.state(victim), expected) << "silent " << silent;
    }
    EXPECT_EQ(fd.total_deaths(), 1);
  }
}

/// Three sites and a coordinator over one reliability layer and a wire that
/// gives each broadcast copy its own fate (so each copy is acked), routed
/// by hand like RuntimeDriver so a test can lose the frames it names: here,
/// site 2's ack of the initialization sync's estimate broadcast. The
/// coordinator gives that anchor up, declares site 2 dead and records the
/// anchor as undelivered, although site 2 holds it.
class LostAnchorAck {
 public:
  static constexpr int kSites = 3;

  LostAnchorAck()
      : wire_(kSites),
        reliable_(&wire_, kSites, ReliableTransportConfig{}, nullptr),
        coordinator_(kSites, norm_, Config(1000.0), &reliable_) {
    coordinator_.AttachReliability(&reliable_);
    for (int i = 0; i < kSites; ++i) {
      sites_.push_back(std::make_unique<SiteNode>(i, kSites, norm_,
                                                  Config(1000.0), &reliable_));
      sites_[i]->Observe(Vector{1.0, 0.0});
    }
    coordinator_.Start();
    Route();
  }

  void Route() {
    for (;;) {
      while (!wire_.empty()) {
        const RuntimeMessage m = wire_.Pop();
        if (m.type == RuntimeMessage::Type::kNewEstimate) anchor_seq_ = m.seq;
        if (m.type == RuntimeMessage::Type::kAck && m.from == 2 &&
            m.seq == anchor_seq_) {
          continue;  // lost on the wire, every retransmission's ack too
        }
        Deliver(m.to, m);  // the wire readdressed every broadcast copy
      }
      if (reliable_.HasUnacked()) {
        reliable_.AdvanceRound();
        continue;
      }
      coordinator_.OnQuiescent();
      if (wire_.empty() && !reliable_.HasUnacked()) return;
    }
  }

  void Deliver(int receiver, const RuntimeMessage& message) {
    std::vector<RuntimeMessage> fresh;
    reliable_.OnDeliver(receiver, message, &fresh);
    for (const RuntimeMessage& m : fresh) {
      if (receiver == kCoordinatorId) {
        coordinator_.OnMessage(m);
      } else {
        sites_[receiver]->OnMessage(m);
      }
    }
  }

  void Tick() {
    coordinator_.BeginCycle();
    for (auto& site : sites_) site->Observe(Vector{1.0, 0.0});
    Route();
  }

  FailureDetector::State state(int site) const {
    return coordinator_.failure_detector().state(site);
  }

  L2Norm norm_;
  PerSiteWire wire_;
  ReliableTransport reliable_;
  CoordinatorNode coordinator_;
  std::vector<std::unique_ptr<SiteNode>> sites_;
  std::int64_t anchor_seq_ = -1;
};

// Proof of anchor: site 2's heartbeat names the epoch of the estimate it
// holds, the one the coordinator gave up on, so it revives without a grant
// and without the resync a completed grant schedules.
TEST(RuntimeReliabilityTest, HeartbeatNamingTheLostAnchorRevivesWithoutAGrant) {
  LostAnchorAck deployment;
  const CoordinatorNode& coordinator = deployment.coordinator_;
  ASSERT_EQ(coordinator.full_syncs(), 1);
  ASSERT_EQ(deployment.state(2), FailureDetector::State::kDead);
  ASSERT_TRUE(deployment.sites_[2]->anchored());
  ASSERT_EQ(deployment.sites_[2]->epoch(), coordinator.epoch());
  for (int t = 0; t < 8; ++t) deployment.Tick();
  EXPECT_EQ(deployment.state(2), FailureDetector::State::kAlive);
  EXPECT_EQ(coordinator.audit().rejoins_granted, 0);
  EXPECT_EQ(coordinator.full_syncs(), 1);
  EXPECT_EQ(coordinator.epoch(), 1);
}

// A heartbeat that proves nothing (an older anchor, or a scalar that reads
// as no count) leaves the conservative path in place: the site is granted.
TEST(RuntimeReliabilityTest, HeartbeatNotNamingTheLostAnchorStillDrawsAGrant) {
  for (const double scalar :
       {0.0, std::numeric_limits<double>::quiet_NaN(), -1.0, 1e300}) {
    SCOPED_TRACE(scalar);
    LostAnchorAck deployment;
    CoordinatorNode& coordinator = deployment.coordinator_;
    ASSERT_EQ(deployment.state(2), FailureDetector::State::kDead);
    coordinator.BeginCycle();
    RuntimeMessage heartbeat;
    heartbeat.type = RuntimeMessage::Type::kHeartbeat;
    heartbeat.from = 2;
    heartbeat.to = kCoordinatorId;
    heartbeat.epoch = coordinator.epoch();
    heartbeat.scalar = scalar;
    coordinator.OnMessage(heartbeat);
    EXPECT_EQ(coordinator.audit().rejoins_granted, 1);
    EXPECT_EQ(deployment.state(2), FailureDetector::State::kRejoining);
  }
}

// The proof is refused to a site granted in the epoch of the last estimate
// broadcast: a grant issued during that collection carries the estimate
// from before the sync under the sync's own epoch, so the epoch cannot tell
// the two anchors apart. The coordinator is fed by hand over a reliability
// layer, on a wire that gives each broadcast copy its own fate, whose acks
// the test sends.
TEST(RuntimeReliabilityTest, HeartbeatFromASiteGrantedInTheAnchorEpochDrawsAGrant) {
  const L2Norm norm;
  PerSiteWire wire(3);
  ReliableTransport reliable(&wire, 3, ReliableTransportConfig{}, nullptr);
  CoordinatorNode coordinator(3, norm, Config(3.0), &reliable);
  coordinator.AttachReliability(&reliable);
  // Acks every coordinator message, except site 2's copies of the estimate
  // broadcast when `lose_anchor_ack` is set, until nothing is in flight.
  const auto drain = [&](bool lose_anchor_ack) {
    for (;;) {
      while (!wire.empty()) {
        const RuntimeMessage m = wire.Pop();
        for (int site = 0; site < 3; ++site) {
          if (m.to != site) continue;
          if (lose_anchor_ack && site == 2 &&
              m.type == RuntimeMessage::Type::kNewEstimate) {
            continue;
          }
          RuntimeMessage ack;
          ack.type = RuntimeMessage::Type::kAck;
          ack.from = site;
          ack.to = kCoordinatorId;
          ack.epoch = m.epoch;
          ack.seq = m.seq;
          std::vector<RuntimeMessage> fresh;
          reliable.OnDeliver(kCoordinatorId, ack, &fresh);
        }
      }
      if (!reliable.HasUnacked()) return;
      reliable.AdvanceRound();
    }
  };
  const auto send = [&](RuntimeMessage::Type type, int site, Vector payload,
                        double scalar) {
    RuntimeMessage m;
    m.type = type;
    m.from = site;
    m.to = kCoordinatorId;
    m.epoch = coordinator.epoch();
    m.payload = std::move(payload);
    m.scalar = scalar;
    coordinator.OnMessage(m);
  };
  const auto report_all = [&](double x) {
    for (int site = 0; site < 3; ++site) {
      send(RuntimeMessage::Type::kStateReport, site, Vector{x, 0.0}, 0.0);
    }
  };

  coordinator.Start();
  drain(false);
  report_all(1.0);  // e = (1, 0) under T = 3
  drain(false);
  // A drift that crosses T escalates the probe (epoch 2) to a collection
  // (epoch 3), during which site 2 asks for and gets a grant.
  coordinator.BeginCycle();
  send(RuntimeMessage::Type::kLocalViolation, 0, Vector(), 0.0);
  drain(false);
  send(RuntimeMessage::Type::kDriftReport, 0, Vector{10.0, 0.0}, 1.0);
  coordinator.OnQuiescent();
  drain(false);
  ASSERT_EQ(coordinator.epoch(), 3);
  send(RuntimeMessage::Type::kRejoinRequest, 2, Vector(), 0.0);
  ASSERT_EQ(coordinator.audit().rejoins_granted, 1);
  drain(false);
  report_all(4.0);
  ASSERT_EQ(coordinator.full_syncs(), 2);
  drain(true);  // site 2's ack of the epoch-3 estimate is lost: give-up
  ASSERT_EQ(coordinator.failure_detector().state(2),
            FailureDetector::State::kDead);

  coordinator.BeginCycle();
  send(RuntimeMessage::Type::kHeartbeat, 2, Vector(), 3.0);
  EXPECT_EQ(coordinator.audit().rejoins_granted, 2);
  EXPECT_EQ(coordinator.failure_detector().state(2),
            FailureDetector::State::kRejoining);
}

// ── Anchor freshness end to end ──────────────────────────────────────────
//
// An ack proves that a site's reliability layer received an estimate, not
// that the site applied it: on a reordering link a probe of epoch E+1 can
// overtake the estimate of epoch E, which the site then drops as stale
// after acking it. Probes and heartbeats name anchors, so the staleness is
// caught by the protocol itself.

RuntimeMessage FromCoordinator(RuntimeMessage::Type type, std::int64_t epoch,
                               double scalar) {
  RuntimeMessage m;
  m.type = type;
  m.from = kCoordinatorId;
  m.to = kBroadcastId;
  m.epoch = epoch;
  m.scalar = scalar;
  if (type == RuntimeMessage::Type::kNewEstimate) m.payload = Vector{1.0, 0.0};
  return m;
}

// The probe path: a site whose estimate of epoch 2 was overtaken by the
// probe of epoch 3 still holds the epoch-1 anchor. The probe names anchor
// epoch 2, so the site un-anchors and asks for a rejoin instead of
// reporting drift against the stale estimate.
TEST(RuntimeReliabilityTest, ProbeNamingANewerAnchorUnanchorsTheSite) {
  const L2Norm norm;
  InMemoryBus bus;
  SiteNode site(0, 2, norm, Config(3.0), &bus);
  site.Observe(Vector{1.0, 0.0});
  site.OnMessage(FromCoordinator(RuntimeMessage::Type::kNewEstimate, 1, 0.5));
  ASSERT_TRUE(site.anchored());
  // The epoch-2 collection reaches the site; its estimate does not, yet.
  site.OnMessage(
      FromCoordinator(RuntimeMessage::Type::kFullStateRequest, 2, 0.0));
  while (!bus.empty()) bus.Pop();
  site.Observe(Vector{1.0, 0.0});
  while (!bus.empty()) bus.Pop();

  site.OnMessage(FromCoordinator(RuntimeMessage::Type::kProbeRequest, 3, 2.0));
  EXPECT_FALSE(site.anchored());
  EXPECT_EQ(site.epoch(), 3);
  ASSERT_FALSE(bus.empty());
  EXPECT_EQ(bus.Pop().type, RuntimeMessage::Type::kRejoinRequest);
  EXPECT_TRUE(bus.empty());  // and no drift report
  // The overtaken estimate arrives late and is dropped as stale.
  site.OnMessage(FromCoordinator(RuntimeMessage::Type::kNewEstimate, 2, 0.5));
  EXPECT_FALSE(site.anchored());
  EXPECT_EQ(site.audit().stale_epoch_drops, 1);
}

// A probe naming the site's own anchor, an older one, or no count at all
// (−1 from a coordinator that has broadcast no estimate since Recover)
// leaves an anchored site anchored.
TEST(RuntimeReliabilityTest, ProbeNamingNoNewerAnchorClaimsNothing) {
  for (const double scalar :
       {2.0, 1.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(scalar);
    const L2Norm norm;
    InMemoryBus bus;
    SiteNode site(0, 2, norm, Config(3.0), &bus);
    site.Observe(Vector{1.0, 0.0});
    site.OnMessage(
        FromCoordinator(RuntimeMessage::Type::kNewEstimate, 2, 0.5));
    site.Observe(Vector{1.0, 0.0});
    while (!bus.empty()) bus.Pop();
    site.OnMessage(
        FromCoordinator(RuntimeMessage::Type::kProbeRequest, 3, scalar));
    EXPECT_TRUE(site.anchored());
    EXPECT_EQ(site.audit().rejoin_requests_sent, 0);
  }
}

/// A coordinator fed by hand over the whole-delivering bus, which draws no
/// acks for its broadcasts: it learns what its sites hold only from them.
class HandFedCoordinator {
 public:
  HandFedCoordinator()
      : reliable_(&bus_, 3, ReliableTransportConfig{}, nullptr),
        coordinator_(3, norm_, Config(3.0), &reliable_) {
    coordinator_.AttachReliability(&reliable_);
    coordinator_.Start();
    ReportAll(1.0);  // epoch 1: e = (1, 0) under T = 3
  }

  void Send(RuntimeMessage::Type type, int site, Vector payload,
            double scalar) {
    RuntimeMessage m;
    m.type = type;
    m.from = site;
    m.to = kCoordinatorId;
    m.epoch = coordinator_.epoch();
    m.payload = std::move(payload);
    m.scalar = scalar;
    coordinator_.OnMessage(m);
  }
  void ReportAll(double x, int sites = 3) {
    for (int site = 0; site < sites; ++site) {
      Send(RuntimeMessage::Type::kStateReport, site, Vector{x, 0.0}, 0.0);
    }
  }
  /// A crossing drift escalates a probe (epoch + 1) to a collection
  /// (epoch + 2), whose reports the caller sends.
  void EscalateToCollection() {
    Send(RuntimeMessage::Type::kLocalViolation, 0, Vector(), 0.0);
    Send(RuntimeMessage::Type::kDriftReport, 0, Vector{10.0, 0.0}, 1.0);
    coordinator_.OnQuiescent();
  }
  /// The last probe on the wire, or none.
  std::optional<RuntimeMessage> LastProbe() {
    std::optional<RuntimeMessage> probe;
    while (!bus_.empty()) {
      const RuntimeMessage m = bus_.Pop();
      if (m.type == RuntimeMessage::Type::kProbeRequest) probe = m;
    }
    return probe;
  }
  long grants() const { return coordinator_.audit().rejoins_granted; }

  L2Norm norm_;
  InMemoryBus bus_;
  ReliableTransport reliable_;
  CoordinatorNode coordinator_;
};

TEST(RuntimeReliabilityTest, ProbesNameTheLastEstimateBroadcast) {
  HandFedCoordinator deployment;
  deployment.coordinator_.BeginCycle();
  deployment.Send(RuntimeMessage::Type::kLocalViolation, 0, Vector(), 0.0);
  const std::optional<RuntimeMessage> probe = deployment.LastProbe();
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->epoch, 2);
  EXPECT_EQ(WireCount(probe->scalar), 1);  // the initialization sync's anchor
}

// The heartbeat path: a live, epoch-current site whose heartbeat names an
// anchor older than the last estimate broadcast before this cycle began
// missed that estimate (over a whole-delivering link no give-up will ever
// say so), and is re-granted.
TEST(RuntimeReliabilityTest, HeartbeatNamingAnOlderAnchorDrawsAGrant) {
  HandFedCoordinator deployment;
  CoordinatorNode& coordinator = deployment.coordinator_;
  coordinator.BeginCycle();
  deployment.EscalateToCollection();
  ASSERT_EQ(coordinator.epoch(), 3);
  deployment.ReportAll(4.0);  // the epoch-3 estimate goes out
  ASSERT_EQ(coordinator.full_syncs(), 2);

  coordinator.BeginCycle();
  deployment.Send(RuntimeMessage::Type::kHeartbeat, 1, Vector(), 3.0);
  EXPECT_EQ(deployment.grants(), 0);  // site 1 holds the estimate
  deployment.Send(RuntimeMessage::Type::kHeartbeat, 2, Vector(), 1.0);
  EXPECT_EQ(deployment.grants(), 1);  // site 2 still holds epoch 1's
  EXPECT_EQ(coordinator.failure_detector().state(2),
            FailureDetector::State::kAlive);
}

// The same-cycle case: a collection left open closes in BeginCycle and
// broadcasts its estimate there, after which the sites observe. A
// heartbeat stamped in that Observe names the previous anchor because the
// estimate has not reached its site yet, which is no evidence of loss. In
// the next cycle the same heartbeat is.
TEST(RuntimeReliabilityTest, HeartbeatStampedBeforeASameCycleEstimateDrawsNoGrant) {
  HandFedCoordinator deployment;
  CoordinatorNode& coordinator = deployment.coordinator_;
  coordinator.BeginCycle();
  deployment.EscalateToCollection();
  deployment.ReportAll(4.0, /*sites=*/2);  // site 2 never reports
  ASSERT_EQ(coordinator.full_syncs(), 1);

  coordinator.BeginCycle();  // closes the collection: the epoch-3 estimate
  ASSERT_EQ(coordinator.full_syncs(), 2);
  ASSERT_EQ(coordinator.epoch(), 3);
  deployment.Send(RuntimeMessage::Type::kHeartbeat, 1, Vector(), 1.0);
  EXPECT_EQ(deployment.grants(), 0);

  coordinator.BeginCycle();
  deployment.Send(RuntimeMessage::Type::kHeartbeat, 1, Vector(), 1.0);
  EXPECT_EQ(deployment.grants(), 1);
}

TEST(RuntimeReliabilityTest, CrashedSiteThatMissedASyncRejoinsViaGrant) {
  const L2Norm norm;
  RuntimeDriver driver(4, norm, Config(3.0), SimTransportConfig{});
  std::vector<Vector> locals(4, Vector{1.0, 0.0});
  driver.Initialize(locals);
  const std::int64_t epoch_before = driver.coordinator().epoch();

  // A true crossing while site 2 is down: the fleet syncs without it
  // (degraded), advancing the epoch past what site 2 has seen.
  driver.sim_transport()->CrashSite(2);
  for (auto& v : locals) v = Vector{6.0, 0.0};
  for (int t = 0; t < 8 && !driver.coordinator().BelievesAbove(); ++t) {
    driver.Tick(locals);
  }
  ASSERT_TRUE(driver.coordinator().BelievesAbove());
  ASSERT_GT(driver.coordinator().epoch(), epoch_before);

  driver.sim_transport()->RecoverSite(2);
  // The site still holds its pre-crash anchor — it cannot detect the missed
  // rounds on its own; the coordinator must notice the stale epoch on its
  // next message and resync it.
  for (int t = 0;
       t < 10 && driver.site(2).epoch() < driver.coordinator().epoch();
       ++t) {
    driver.Tick(locals);
  }
  // The recovered site's stale-epoch contact triggered the rejoin
  // handshake: grant → re-anchor → fresh state → alive, epoch-current.
  EXPECT_GE(driver.coordinator().audit().rejoins_granted, 1);
  EXPECT_EQ(driver.coordinator().failure_detector().state(2),
            FailureDetector::State::kAlive);
  EXPECT_TRUE(driver.site(2).anchored());
  EXPECT_EQ(driver.site(2).epoch(), driver.coordinator().epoch());
}

// A site crashed in the fault layer takes no part in the whole broadcasts
// it misses: neither its dedup window nor its node sees them. After
// recovery the next broadcast lands past a hole in the window, which the
// general receive path records (the in-order step needs none), and the
// epoch gap it carries makes the site ask to rejoin.
TEST(RuntimeReliabilityTest, CrashedSiteMissesWholeBroadcastsAndFindsTheHole) {
  const L2Norm norm;
  RuntimeDriver driver(4, norm, Config(3.0), SimTransportConfig{});
  std::vector<Vector> locals(4, Vector{1.0, 0.0});
  driver.Initialize(locals);
  const ReliableTransport& reliable = driver.reliable_transport();
  const ReliableTransport::SiteWindowView before = reliable.SiteWindow(2);
  const SiteNode::AuditStats audit_before = driver.site(2).audit();
  const std::int64_t epoch_before = driver.site(2).epoch();
  ASSERT_GT(before.top, 0);
  ASSERT_EQ(before.missing, 0);

  driver.sim_transport()->CrashSite(2);
  for (auto& v : locals) v = Vector{6.0, 0.0};
  for (int t = 0; t < 8 && !driver.coordinator().BelievesAbove(); ++t) {
    driver.Tick(locals);
  }
  ASSERT_TRUE(driver.coordinator().BelievesAbove());
  EXPECT_GT(reliable.SiteWindow(0).top, before.top);
  EXPECT_EQ(reliable.SiteWindow(2).top, before.top);
  EXPECT_EQ(reliable.SiteWindow(2).missing, 0);
  EXPECT_EQ(driver.site(2).epoch(), epoch_before);
  EXPECT_EQ(driver.site(2).audit().stale_epoch_drops,
            audit_before.stale_epoch_drops);
  EXPECT_EQ(driver.site(2).audit().rejoin_requests_sent,
            audit_before.rejoin_requests_sent);

  // Site 2 comes back on its old anchor and stays quiet; the others fall
  // back below the threshold, which draws a probe.
  driver.sim_transport()->RecoverSite(2);
  for (auto& v : locals) v = Vector{1.0, 0.0};
  for (int t = 0; t < 4 && reliable.SiteWindow(2).top == before.top; ++t) {
    driver.Tick(locals);
  }
  const ReliableTransport::SiteWindowView after = reliable.SiteWindow(2);
  ASSERT_GT(after.top, before.top);
  EXPECT_GT(after.missing, 0);
  EXPECT_GT(driver.site(2).audit().rejoin_requests_sent,
            audit_before.rejoin_requests_sent);
}

TEST(RuntimeReliabilityTest, FaultFreeRunNeverRetransmits) {
  const L2Norm norm;
  RuntimeDriver driver(8, norm, Config(3.0));
  std::vector<Vector> locals(8, Vector{1.0, 0.0});
  driver.Initialize(locals);
  for (auto& v : locals) v = Vector{6.0, 0.0};
  for (int t = 0; t < 10; ++t) driver.Tick(locals);

  // Acks land in the same drain as the data they acknowledge: a reliable
  // network never reaches a retransmission deadline. (stale_epoch_drops is
  // NOT necessarily zero here — when several sites alarm in the same cycle
  // the first alarm bumps the epoch and the raced duplicates land behind
  // it; that is the coalescing path, not a fault artifact.)
  EXPECT_EQ(driver.reliable_transport().stats().retransmissions, 0);
  EXPECT_EQ(driver.reliable_transport().stats().give_ups, 0);
  EXPECT_EQ(driver.reliable_transport().stats().duplicates_suppressed, 0);
  EXPECT_EQ(driver.coordinator().audit().stale_epoch_applied, 0);
}

}  // namespace
}  // namespace sgm

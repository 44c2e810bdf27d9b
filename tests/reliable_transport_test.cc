// Unit tests of the ack/retransmit reliability decorator: sequencing, ack
// resolution, backoff retransmission, give-up reporting, receive-side
// dedup, and the control-message / link-administration exemptions. A
// seeded transcript test pins the layer's exact schedule.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "runtime/reliable_transport.h"
#include "runtime/transport.h"

namespace sgm {
namespace {

RuntimeMessage Report(int from) {
  RuntimeMessage m;
  m.type = RuntimeMessage::Type::kStateReport;
  m.from = from;
  m.to = kCoordinatorId;
  m.payload = Vector{1.0, 2.0};
  return m;
}

RuntimeMessage EstimateBroadcast() {
  RuntimeMessage m;
  m.type = RuntimeMessage::Type::kNewEstimate;
  m.from = kCoordinatorId;
  m.to = kBroadcastId;
  m.payload = Vector{3.0, 4.0};
  return m;
}

/// Feeds one message through the receive stack and returns what survived.
std::vector<RuntimeMessage> DeliverTo(ReliableTransport* rt, int receiver,
                                      const RuntimeMessage& message) {
  std::vector<RuntimeMessage> fresh;
  rt->OnDeliver(receiver, message, &fresh);
  return fresh;
}

TEST(ReliableTransportTest, AckResolvesAndNothingRetransmits) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 2, ReliableTransportConfig{});
  rt.Send(Report(0));
  ASSERT_FALSE(bus.empty());
  const RuntimeMessage sent = bus.Pop();
  EXPECT_GT(sent.seq, 0);
  EXPECT_FALSE(sent.retransmit);
  EXPECT_TRUE(rt.HasUnacked());

  // Coordinator receives: the message survives and an ack goes back.
  const auto fresh = DeliverTo(&rt, kCoordinatorId, sent);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(rt.stats().acks_sent, 1);
  ASSERT_FALSE(bus.empty());
  const RuntimeMessage ack = bus.Pop();
  ASSERT_EQ(ack.type, RuntimeMessage::Type::kAck);
  EXPECT_EQ(ack.to, 0);
  EXPECT_EQ(ack.seq, sent.seq);

  // The ack resolves the in-flight entry; nothing ever retransmits.
  EXPECT_TRUE(DeliverTo(&rt, 0, ack).empty());
  EXPECT_FALSE(rt.HasUnacked());
  for (int i = 0; i < 32; ++i) rt.AdvanceRound();
  EXPECT_EQ(rt.stats().retransmissions, 0);
  EXPECT_TRUE(bus.empty());
}

TEST(ReliableTransportTest, LostMessageRetransmitsWithSameSequence) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 2, ReliableTransportConfig{});
  rt.Send(Report(1));
  const RuntimeMessage original = bus.Pop();  // dropped on the floor

  // base_backoff 1 + jitter {0,1}: the copy fires within two rounds.
  rt.AdvanceRound();
  if (bus.empty()) rt.AdvanceRound();
  ASSERT_FALSE(bus.empty());
  const RuntimeMessage copy = bus.Pop();
  EXPECT_TRUE(copy.retransmit);
  EXPECT_EQ(copy.seq, original.seq);
  EXPECT_EQ(copy.type, original.type);
  EXPECT_EQ(rt.stats().retransmissions, 1);
  EXPECT_TRUE(rt.HasUnacked());
}

TEST(ReliableTransportTest, DuplicateSuppressedAndReAcked) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 2, ReliableTransportConfig{});
  rt.Send(Report(0));
  const RuntimeMessage sent = bus.Pop();

  EXPECT_EQ(DeliverTo(&rt, kCoordinatorId, sent).size(), 1u);
  // The same (sender, seq) again — e.g. a retransmitted copy racing the
  // ack: suppressed, but re-acked in case the first ack was lost.
  EXPECT_TRUE(DeliverTo(&rt, kCoordinatorId, sent).empty());
  EXPECT_EQ(rt.stats().duplicates_suppressed, 1);
  EXPECT_EQ(rt.stats().acks_sent, 2);
}

TEST(ReliableTransportTest, BroadcastRetransmitsUnicastToSilentSitesOnly) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 3, ReliableTransportConfig{});
  rt.Send(EstimateBroadcast());
  const RuntimeMessage broadcast = bus.Pop();
  ASSERT_EQ(broadcast.to, kBroadcastId);

  // Sites 0 and 1 receive and ack; site 2 never sees it.
  for (int site : {0, 1}) {
    ASSERT_EQ(DeliverTo(&rt, site, broadcast).size(), 1u);
    const RuntimeMessage ack = bus.Pop();
    ASSERT_EQ(ack.type, RuntimeMessage::Type::kAck);
    EXPECT_TRUE(DeliverTo(&rt, kCoordinatorId, ack).empty());
  }
  EXPECT_TRUE(rt.HasUnacked());

  rt.AdvanceRound();
  if (bus.empty()) rt.AdvanceRound();
  ASSERT_FALSE(bus.empty());
  const RuntimeMessage copy = bus.Pop();
  EXPECT_TRUE(bus.empty());  // exactly one copy, for the one silent site
  EXPECT_TRUE(copy.retransmit);
  EXPECT_EQ(copy.to, 2);
  EXPECT_EQ(copy.seq, broadcast.seq);

  // Site 2's dedup still keys by (sender, seq): the late original would be
  // suppressed once the unicast copy has been delivered.
  ASSERT_EQ(DeliverTo(&rt, 2, copy).size(), 1u);
  bus.Pop();  // site 2's ack
  EXPECT_TRUE(DeliverTo(&rt, 2, broadcast).empty());
  EXPECT_EQ(rt.stats().duplicates_suppressed, 1);
}

TEST(ReliableTransportTest, GiveUpReportsDeadLinksWithTheLostMessage) {
  InMemoryBus bus;
  ReliableTransportConfig config;
  config.max_retransmits = 1;
  ReliableTransport rt(&bus, 2, config);
  std::vector<std::pair<int, RuntimeMessage::Type>> dead;
  rt.SetDeadLinkHandler([&](int site, const RuntimeMessage& m) {
    dead.emplace_back(site, m.type);
  });

  rt.Send(EstimateBroadcast());
  // Drop everything the transport ever puts on the wire.
  while (!bus.empty()) bus.Pop();
  for (int i = 0; i < 32 && rt.HasUnacked(); ++i) {
    rt.AdvanceRound();
    while (!bus.empty()) bus.Pop();
  }
  EXPECT_FALSE(rt.HasUnacked());
  EXPECT_EQ(rt.stats().give_ups, 1);
  ASSERT_EQ(dead.size(), 2u);  // both broadcast destinations were unreachable
  for (const auto& [site, type] : dead) {
    EXPECT_TRUE(site == 0 || site == 1);
    EXPECT_EQ(type, RuntimeMessage::Type::kNewEstimate);
  }
}

TEST(ReliableTransportTest, ControlMessagesAreNeverTracked) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 2, ReliableTransportConfig{});
  for (const RuntimeMessage::Type type :
       {RuntimeMessage::Type::kHeartbeat,
        RuntimeMessage::Type::kRejoinRequest}) {
    RuntimeMessage m;
    m.type = type;
    m.from = 0;
    m.to = kCoordinatorId;
    rt.Send(m);
    const RuntimeMessage sent = bus.Pop();
    EXPECT_EQ(sent.seq, 0);  // unsequenced
    EXPECT_FALSE(rt.HasUnacked());
    // Delivered verbatim; no ack is generated for unsequenced traffic.
    EXPECT_EQ(DeliverTo(&rt, kCoordinatorId, sent).size(), 1u);
    EXPECT_TRUE(bus.empty());
  }
  EXPECT_EQ(rt.stats().acks_sent, 0);
}

TEST(ReliableTransportTest, LinkDownReleasesAndExcludesFromTracking) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 3, ReliableTransportConfig{});

  // Pending expectations on a link are released when it goes down.
  RuntimeMessage unicast = EstimateBroadcast();
  unicast.to = 0;
  rt.Send(unicast);
  bus.Pop();
  ASSERT_TRUE(rt.HasUnacked());
  rt.MarkLinkDown(0);
  EXPECT_FALSE(rt.HasUnacked());
  EXPECT_FALSE(rt.IsLinkUp(0));

  // A fresh unicast to the down link is forwarded best-effort, untracked;
  // a broadcast only awaits the up links.
  rt.Send(unicast);
  EXPECT_FALSE(bus.empty());
  bus.Pop();
  EXPECT_FALSE(rt.HasUnacked());
  rt.Send(EstimateBroadcast());
  bus.Pop();
  ASSERT_TRUE(rt.HasUnacked());
  for (int site : {1, 2}) {
    RuntimeMessage ack;
    ack.type = RuntimeMessage::Type::kAck;
    ack.from = site;
    ack.to = kCoordinatorId;
    ack.seq = 3;  // third tracked send from the coordinator
    EXPECT_TRUE(DeliverTo(&rt, kCoordinatorId, ack).empty());
  }
  EXPECT_FALSE(rt.HasUnacked());

  rt.MarkLinkUp(0);
  EXPECT_TRUE(rt.IsLinkUp(0));
}

TEST(ReliableTransportTest, QueueCapEvictsOldestExpectationPerPeer) {
  InMemoryBus bus;
  ReliableTransportConfig config;
  config.max_in_flight_per_peer = 2;
  ReliableTransport rt(&bus, 2, config);
  int dead_links = 0;
  rt.SetDeadLinkHandler([&](int, const RuntimeMessage&) { ++dead_links; });

  RuntimeMessage unicast = EstimateBroadcast();
  unicast.to = 0;
  rt.Send(unicast);
  const std::int64_t oldest_seq = bus.Pop().seq;
  rt.Send(unicast);
  bus.Pop();
  // The third tracked send would exceed the cap on peer 0: the oldest
  // expectation is released — best-effort from then on, not a dead link.
  rt.Send(unicast);
  bus.Pop();
  EXPECT_EQ(rt.stats().queue_evictions, 1);
  EXPECT_EQ(dead_links, 0);

  // The evicted entry no longer retransmits; the two retained ones do.
  while (!bus.empty()) bus.Pop();
  rt.AdvanceRound();
  rt.AdvanceRound();
  std::vector<std::int64_t> retransmitted;
  while (!bus.empty()) retransmitted.push_back(bus.Pop().seq);
  EXPECT_EQ(retransmitted.size(), 2u);
  for (const std::int64_t seq : retransmitted) {
    EXPECT_NE(seq, oldest_seq);
  }
}

TEST(ReliableTransportTest, DedupWindowCompactsIntoFloorWithoutMisjudging) {
  InMemoryBus bus;
  ReliableTransportConfig config;
  config.dedup_window = 8;  // the smallest legal window
  ReliableTransport rt(&bus, 2, config);

  RuntimeMessage unicast = EstimateBroadcast();
  unicast.to = 0;
  std::vector<RuntimeMessage> delivered;
  for (int i = 0; i < 24; ++i) {
    rt.Send(unicast);
    const RuntimeMessage sent = bus.Pop();
    EXPECT_EQ(DeliverTo(&rt, 0, sent).size(), 1u);
    delivered.push_back(sent);
    while (!bus.empty()) bus.Pop();  // acks
  }
  EXPECT_GT(rt.stats().dedup_evictions, 0);

  // Seqs compacted below the floor are still recognized as duplicates: a
  // very late straggler copy must not be delivered twice.
  EXPECT_TRUE(DeliverTo(&rt, 0, delivered.front()).empty());
  EXPECT_TRUE(DeliverTo(&rt, 0, delivered.back()).empty());
  EXPECT_GE(rt.stats().duplicates_suppressed, 2);
}

TEST(ReliableTransportTest, AbandonSenderVoidsInFlightWithoutDeadVerdicts) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 3, ReliableTransportConfig{});
  int dead_links = 0;
  rt.SetDeadLinkHandler([&](int, const RuntimeMessage&) { ++dead_links; });

  rt.Send(EstimateBroadcast());
  const std::int64_t first_seq = bus.Pop().seq;
  ASSERT_TRUE(rt.HasUnacked());

  // The coordinator process died: its unacked traffic is void — the
  // receivers are fine, so no dead-link verdicts and no give-ups.
  rt.AbandonSender(kCoordinatorId);
  EXPECT_FALSE(rt.HasUnacked());
  EXPECT_EQ(dead_links, 0);
  EXPECT_EQ(rt.stats().give_ups, 0);
  for (int i = 0; i < 16; ++i) rt.AdvanceRound();
  EXPECT_TRUE(bus.empty());  // nothing left to retransmit

  // A recovered coordinator keeps numbering where it left off, so the
  // receivers' dedup windows stay coherent across the crash.
  rt.Send(EstimateBroadcast());
  EXPECT_EQ(bus.Pop().seq, first_seq + 1);
}

TEST(ReliableTransportTest, RetransmissionScheduleIsSeedDeterministic) {
  // Two transports with the same seed make identical jitter choices; a
  // different seed is allowed to differ (and does for this scenario).
  const auto schedule = [](std::uint64_t seed) {
    InMemoryBus bus;
    ReliableTransportConfig config;
    config.seed = seed;
    ReliableTransport rt(&bus, 2, config);
    rt.Send(Report(0));
    while (!bus.empty()) bus.Pop();
    std::vector<int> rounds;
    for (int i = 0; i < 64 && rt.HasUnacked(); ++i) {
      rt.AdvanceRound();
      if (!bus.empty()) rounds.push_back(i);
      while (!bus.empty()) bus.Pop();
    }
    return rounds;
  };
  EXPECT_EQ(schedule(7), schedule(7));
  EXPECT_FALSE(schedule(7).empty());
}

TEST(ReliableTransportTest, OutOfOrderSeqAboveTheFloorIsFreshExactlyOnce) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 2, ReliableTransportConfig{});
  RuntimeMessage unicast = EstimateBroadcast();
  unicast.to = 0;
  std::vector<RuntimeMessage> sent;
  for (int i = 0; i < 3; ++i) {
    rt.Send(unicast);
    sent.push_back(bus.Pop());
  }
  // Arrival order 3, 1, 2: each is fresh the first time, whatever the order.
  EXPECT_EQ(DeliverTo(&rt, 0, sent[2]).size(), 1u);
  EXPECT_EQ(DeliverTo(&rt, 0, sent[0]).size(), 1u);
  EXPECT_TRUE(DeliverTo(&rt, 0, sent[2]).empty());
  EXPECT_EQ(DeliverTo(&rt, 0, sent[1]).size(), 1u);
  for (const RuntimeMessage& m : sent) {
    EXPECT_TRUE(DeliverTo(&rt, 0, m).empty());
  }
  EXPECT_EQ(rt.stats().duplicates_suppressed, 4);
  EXPECT_EQ(rt.stats().acks_sent, 7);
  EXPECT_EQ(rt.stats().dedup_evictions, 0);
}

TEST(ReliableTransportTest, CoordinatorSeqGapsAtASiteAreNotDuplicates) {
  // The coordinator numbers all of its tracked sends in one sequence, so a
  // site sees gaps wherever the coordinator unicast to someone else.
  InMemoryBus bus;
  ReliableTransport rt(&bus, 2, ReliableTransportConfig{});
  RuntimeMessage to_site1 = EstimateBroadcast();
  to_site1.to = 1;
  std::vector<std::int64_t> site0_seqs;
  for (int i = 0; i < 6; ++i) {
    rt.Send(to_site1);
    EXPECT_EQ(DeliverTo(&rt, 1, bus.Pop()).size(), 1u);
    bus.Pop();  // site 1's ack
    rt.Send(EstimateBroadcast());
    const RuntimeMessage broadcast = bus.Pop();
    site0_seqs.push_back(broadcast.seq);
    EXPECT_EQ(DeliverTo(&rt, 0, broadcast).size(), 1u);
    EXPECT_EQ(DeliverTo(&rt, 1, broadcast).size(), 1u);
    while (!bus.empty()) bus.Pop();
  }
  EXPECT_EQ(site0_seqs, (std::vector<std::int64_t>{2, 4, 6, 8, 10, 12}));
  EXPECT_EQ(rt.stats().duplicates_suppressed, 0);
  EXPECT_EQ(rt.stats().acks_sent, 18);
}

TEST(ReliableTransportTest, CompactionAcrossSeqGapsPromotesOnlySeenSeqs) {
  InMemoryBus bus;
  ReliableTransportConfig config;
  config.dedup_window = 8;
  ReliableTransport rt(&bus, 2, config);
  RuntimeMessage to_site1 = EstimateBroadcast();
  to_site1.to = 1;
  // Site 0 sees the even seqs 2..20 only: ten entries in a window of
  // eight, so the two lowest (2, 4) are compacted and the floor is 4.
  for (int i = 0; i < 10; ++i) {
    rt.Send(to_site1);
    rt.Send(EstimateBroadcast());
  }
  while (!bus.empty()) {
    const RuntimeMessage m = bus.Pop();
    if (m.to == kBroadcastId) {
      EXPECT_EQ(DeliverTo(&rt, 0, m).size(), 1u);
    }
  }
  EXPECT_EQ(rt.stats().dedup_evictions, 2);

  RuntimeMessage late = EstimateBroadcast();
  late.seq = 3;  // never delivered to site 0, but at or below the floor
  EXPECT_TRUE(DeliverTo(&rt, 0, late).empty());
  late.seq = 5;  // an unseen gap above the floor: fresh
  EXPECT_EQ(DeliverTo(&rt, 0, late).size(), 1u);
  // ...which overfills the window, and as its lowest seq it is the one
  // compacted: the floor moves to 5.
  EXPECT_EQ(rt.stats().dedup_evictions, 3);
  EXPECT_TRUE(DeliverTo(&rt, 0, late).empty());
  late.seq = 6;  // seen, above the floor
  EXPECT_TRUE(DeliverTo(&rt, 0, late).empty());
  late.seq = 7;  // unseen gap above the new floor
  EXPECT_EQ(DeliverTo(&rt, 0, late).size(), 1u);
  EXPECT_EQ(rt.stats().duplicates_suppressed, 3);
  EXPECT_EQ(rt.stats().dedup_evictions, 4);
}

TEST(ReliableTransportTest, QueueCapEvictsInSenderThenSeqOrder) {
  // Two sites fill the coordinator's cap; the eviction victim is the
  // lowest (sender, seq) entry, not the oldest send.
  InMemoryBus bus;
  ReliableTransportConfig config;
  config.max_in_flight_per_peer = 2;
  ReliableTransport rt(&bus, 2, config);
  rt.Send(Report(1));  // (1, 1)
  rt.Send(Report(0));  // (0, 1)
  rt.Send(Report(1));  // (1, 2): evicts (0, 1)
  EXPECT_EQ(rt.stats().queue_evictions, 1);
  while (!bus.empty()) bus.Pop();

  std::set<std::pair<int, std::int64_t>> retransmitted;
  rt.AdvanceRound();
  rt.AdvanceRound();
  while (!bus.empty()) {
    const RuntimeMessage copy = bus.Pop();
    EXPECT_TRUE(copy.retransmit);
    retransmitted.emplace(copy.from, copy.seq);
  }
  EXPECT_EQ(retransmitted,
            (std::set<std::pair<int, std::int64_t>>{{1, 1}, {1, 2}}));
}

TEST(ReliableTransportTest, AckNamingAnOutOfRangeEndpointIsIgnored) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 2, ReliableTransportConfig{});
  rt.Send(EstimateBroadcast());  // (coordinator, 1), awaiting sites 0 and 1
  rt.Send(Report(0));            // (0, 1), awaiting the coordinator
  while (!bus.empty()) bus.Pop();

  // (from = the acking endpoint, to = the sender whose seq is acked).
  const std::pair<int, int> bogus[] = {{2, kCoordinatorId},
                                       {-7, kCoordinatorId},
                                       {kBroadcastId, kCoordinatorId},
                                       {kCoordinatorId, 2},
                                       {kCoordinatorId, -7},
                                       {kCoordinatorId, kBroadcastId},
                                       {0, 0},
                                       {kCoordinatorId, kCoordinatorId}};
  for (const auto& [from, to] : bogus) {
    RuntimeMessage ack;
    ack.type = RuntimeMessage::Type::kAck;
    ack.from = from;
    ack.to = to;
    ack.seq = 1;
    EXPECT_TRUE(DeliverTo(&rt, kCoordinatorId, ack).empty());
  }
  EXPECT_TRUE(bus.empty());
  ASSERT_TRUE(rt.HasUnacked());

  // Nothing was released: every awaited destination still gets its copy.
  rt.AdvanceRound();
  rt.AdvanceRound();
  std::set<std::pair<int, int>> copies;  // (from, to)
  while (!bus.empty()) {
    const RuntimeMessage copy = bus.Pop();
    copies.emplace(copy.from, copy.to);
  }
  EXPECT_EQ(copies, (std::set<std::pair<int, int>>{{kCoordinatorId, 0},
                                                   {kCoordinatorId, 1},
                                                   {0, kCoordinatorId}}));
}

// ── Behaviour transcript ─────────────────────────────────────────────────
//
// A seeded script drives every entry point over a recording lower
// transport: unicasts both ways, broadcasts, untracked heartbeats, drops,
// duplicates and reordering of popped messages (acks included), rounds,
// link administration and abandoned senders. Every lower Send, every
// dead-link report and every delivered (receiver, sender, seq) is folded
// into one digest, in the order it happened. The goldens pin the layer's
// whole schedule — seq stamping, the jitter draws, retransmission, give-up
// and eviction order, every duplicate verdict — and the final Stats.

/// FNV-1a over a stream of 64-bit values.
class Digest {
 public:
  void Add(std::int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (static_cast<std::uint64_t>(value) >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Lower transport that digests each Send and queues it for the script.
class RecordingTransport final : public Transport {
 public:
  explicit RecordingTransport(Digest* digest) : digest_(digest) {}
  void Send(const RuntimeMessage& message) override {
    ++sends;
    digest_->Add(static_cast<int>(message.type));
    digest_->Add(message.from);
    digest_->Add(message.to);
    digest_->Add(message.seq);
    digest_->Add(message.retransmit ? 1 : 0);
    queue.push_back(message);
  }
  long sends = 0;
  std::deque<RuntimeMessage> queue;

 private:
  Digest* digest_;
};

struct Transcript {
  std::uint64_t digest = 0;
  long sends = 0;
  long dead_links = 0;
  ReliableTransport::Stats stats;
};

Transcript RunTranscript(std::uint64_t seed) {
  constexpr int kSites = 4;
  Digest digest;
  RecordingTransport wire(&digest);
  ReliableTransportConfig config;
  config.seed = seed;
  config.max_in_flight_per_peer = 2;
  config.dedup_window = 8;
  config.max_retransmits = 2;
  ReliableTransport rt(&wire, kSites, config);
  Transcript out;
  rt.SetDeadLinkHandler([&](int site, const RuntimeMessage& m) {
    ++out.dead_links;
    digest.Add(-100);
    digest.Add(site);
    digest.Add(static_cast<int>(m.type));
    digest.Add(m.seq);
  });

  std::vector<RuntimeMessage> fresh;
  const auto deliver = [&](int receiver, const RuntimeMessage& m) {
    fresh.clear();
    rt.OnDeliver(receiver, m, &fresh);
    for (const RuntimeMessage& f : fresh) {
      digest.Add(-200);
      digest.Add(receiver);
      digest.Add(f.from);
      digest.Add(f.seq);
    }
  };
  Rng rng(DeriveSeed(seed, 1));
  const auto site = [&] { return static_cast<int>(rng.NextBounded(kSites)); };
  // One popped message reaches its receivers; a broadcast loses each
  // site's copy independently.
  const auto route = [&](const RuntimeMessage& m, double site_loss) {
    if (m.to != kBroadcastId) {
      deliver(m.to, m);
      return;
    }
    for (int s = 0; s < kSites; ++s) {
      if (!rng.NextBernoulli(site_loss)) deliver(s, m);
    }
  };

  for (int step = 0; step < 800; ++step) {
    const std::uint64_t action = rng.NextBounded(100);
    RuntimeMessage m;
    m.payload = Vector{1.0, 2.0};
    if (action < 12) {
      m.type = RuntimeMessage::Type::kDriftReport;
      m.from = site();
      m.to = kCoordinatorId;
      rt.Send(m);
    } else if (action < 19) {
      m.type = RuntimeMessage::Type::kRejoinGrant;
      m.from = kCoordinatorId;
      m.to = site();
      rt.Send(m);
    } else if (action < 25) {
      m.type = RuntimeMessage::Type::kProbeRequest;
      m.from = kCoordinatorId;
      m.to = kBroadcastId;
      rt.Send(m);
    } else if (action < 29) {
      m.type = RuntimeMessage::Type::kHeartbeat;
      m.from = site();
      m.to = kCoordinatorId;
      m.payload = Vector();
      rt.Send(m);
    } else if (action < 75) {
      if (wire.queue.empty()) continue;
      // Reordering: any of the three oldest queued messages goes next.
      const std::size_t index = rng.NextBounded(
          std::min<std::uint64_t>(wire.queue.size(), 3));
      const RuntimeMessage popped = wire.queue[index];
      const std::uint64_t fate = rng.NextBounded(100);
      if (fate >= 10) {  // else: dropped and gone
        route(popped, 0.15);
      }
      if (fate >= 20) {  // else: stays queued to arrive again (a duplicate)
        wire.queue.erase(wire.queue.begin() +
                         static_cast<std::ptrdiff_t>(index));
      }
    } else if (action < 89) {
      rt.AdvanceRound();
    } else if (action < 93) {
      rt.MarkLinkDown(site());
    } else if (action < 98) {
      rt.MarkLinkUp(site());
    } else {
      const int sender = rng.NextBernoulli(0.5) ? kCoordinatorId : site();
      rt.AbandonSender(sender);
    }
  }
  // Fault-free drain to quiescence.
  for (int round = 0; round < 100; ++round) {
    while (!wire.queue.empty()) {
      const RuntimeMessage m = wire.queue.front();
      wire.queue.pop_front();
      route(m, 0.0);
    }
    if (!rt.HasUnacked()) break;
    rt.AdvanceRound();
  }
  EXPECT_FALSE(rt.HasUnacked());
  out.sends = wire.sends;
  out.stats = rt.stats();
  out.digest = digest.value();
  return out;
}

TEST(ReliableTransportTest, TranscriptMatchesGoldens) {
  struct Golden {
    std::uint64_t seed;
    std::uint64_t digest;
    long sends;
    long dead_links;
    ReliableTransport::Stats stats;
  };
  // Stats order: tracked_sends, retransmissions, acks_sent,
  // duplicates_suppressed, give_ups, queue_evictions, dedup_evictions.
  const Golden goldens[] = {
      {1, 0x9b82079fb4cdd61eULL, 1022, 13, {160, 220, 587, 256, 15, 150, 267}},
      {2, 0xb92f40d51182a1f0ULL, 987, 10, {157, 202, 557, 222, 13, 139, 271}},
      {3, 0x6803a19ef01b113aULL, 1015, 7, {177, 222, 561, 247, 11, 152, 250}},
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(testing::Message() << "seed " << golden.seed);
    const Transcript t = RunTranscript(golden.seed);
    EXPECT_EQ(t.digest, golden.digest);
    EXPECT_EQ(t.sends, golden.sends);
    EXPECT_EQ(t.dead_links, golden.dead_links);
    EXPECT_EQ(t.stats.tracked_sends, golden.stats.tracked_sends);
    EXPECT_EQ(t.stats.retransmissions, golden.stats.retransmissions);
    EXPECT_EQ(t.stats.acks_sent, golden.stats.acks_sent);
    EXPECT_EQ(t.stats.duplicates_suppressed,
              golden.stats.duplicates_suppressed);
    EXPECT_EQ(t.stats.give_ups, golden.stats.give_ups);
    EXPECT_EQ(t.stats.queue_evictions, golden.stats.queue_evictions);
    EXPECT_EQ(t.stats.dedup_evictions, golden.stats.dedup_evictions);
  }
}

}  // namespace
}  // namespace sgm

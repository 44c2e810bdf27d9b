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
#include "test_util.h"

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
  PerSiteWire wire(3);
  ReliableTransport rt(&wire, 3, ReliableTransportConfig{});
  rt.Send(EstimateBroadcast());
  const std::vector<RuntimeMessage> copies = wire.PopAll();
  ASSERT_EQ(copies.size(), 3u);  // one readdressed copy per site

  // Sites 0 and 1 receive and ack; site 2's copy is lost.
  for (int site : {0, 1}) {
    ASSERT_EQ(copies[site].to, site);
    ASSERT_EQ(DeliverTo(&rt, site, copies[site]).size(), 1u);
    const RuntimeMessage ack = wire.Pop();
    ASSERT_EQ(ack.type, RuntimeMessage::Type::kAck);
    EXPECT_TRUE(DeliverTo(&rt, kCoordinatorId, ack).empty());
  }
  EXPECT_TRUE(rt.HasUnacked());

  rt.AdvanceRound();
  if (wire.empty()) rt.AdvanceRound();
  ASSERT_FALSE(wire.empty());
  const RuntimeMessage copy = wire.Pop();
  EXPECT_TRUE(wire.empty());  // exactly one copy, for the one silent site
  EXPECT_TRUE(copy.retransmit);
  EXPECT_EQ(copy.to, 2);
  EXPECT_EQ(copy.seq, copies[2].seq);

  // Site 2's dedup still keys by (sender, seq): the late original would be
  // suppressed once the retransmitted copy has been delivered.
  ASSERT_EQ(DeliverTo(&rt, 2, copy).size(), 1u);
  wire.Pop();  // site 2's ack
  EXPECT_TRUE(DeliverTo(&rt, 2, copies[2]).empty());
  EXPECT_EQ(rt.stats().duplicates_suppressed, 1);
}

TEST(ReliableTransportTest, WholeDeliveredBroadcastIsSequencedButNotAcked) {
  InMemoryBus bus;  // delivers a broadcast whole, addressed to every site
  ReliableTransportConfig config;
  config.max_retransmits = 1;
  ReliableTransport rt(&bus, 3, config);
  int dead_links = 0;
  rt.SetDeadLinkHandler([&](int, const RuntimeMessage&) { ++dead_links; });
  rt.Send(EstimateBroadcast());
  const RuntimeMessage broadcast = bus.Pop();
  EXPECT_TRUE(bus.empty());  // one message on the wire
  ASSERT_EQ(broadcast.to, kBroadcastId);
  EXPECT_GT(broadcast.seq, 0);  // still sequenced, so receivers dedup
  EXPECT_FALSE(rt.HasUnacked());
  EXPECT_EQ(rt.stats().tracked_sends, 0);

  // Sites 0 and 1 take it fresh and ack nothing; site 2 crashed with its
  // copy, a loss no ack could have repaired.
  for (int site : {0, 1}) {
    EXPECT_EQ(DeliverTo(&rt, site, broadcast).size(), 1u);
  }
  EXPECT_TRUE(bus.empty());
  EXPECT_EQ(rt.stats().acks_sent, 0);
  // A second delivery is a duplicate, suppressed and not re-acked.
  EXPECT_TRUE(DeliverTo(&rt, 1, broadcast).empty());
  EXPECT_EQ(rt.stats().duplicates_suppressed, 1);
  EXPECT_TRUE(bus.empty());
  EXPECT_EQ(rt.stats().acks_sent, 0);
  // Nothing awaited, so nothing retransmits or gives up: the missed beats
  // of site 2, not this broadcast, are what declare it dead.
  for (int i = 0; i < 32; ++i) rt.AdvanceRound();
  EXPECT_TRUE(bus.empty());
  EXPECT_EQ(rt.stats().retransmissions, 0);
  EXPECT_EQ(rt.stats().give_ups, 0);
  EXPECT_EQ(dead_links, 0);
}

TEST(ReliableTransportTest, GiveUpReportsDeadLinksWithTheLostMessage) {
  PerSiteWire wire(2);
  ReliableTransportConfig config;
  config.max_retransmits = 1;
  ReliableTransport rt(&wire, 2, config);
  std::vector<std::pair<int, RuntimeMessage::Type>> dead;
  rt.SetDeadLinkHandler([&](int site, const RuntimeMessage& m) {
    dead.emplace_back(site, m.type);
  });

  rt.Send(EstimateBroadcast());
  // Drop everything the transport ever puts on the wire.
  wire.PopAll();
  for (int i = 0; i < 32 && rt.HasUnacked(); ++i) {
    rt.AdvanceRound();
    wire.PopAll();
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
  PerSiteWire wire(3);
  ReliableTransport rt(&wire, 3, ReliableTransportConfig{});

  // Pending expectations on a link are released when it goes down.
  RuntimeMessage unicast = EstimateBroadcast();
  unicast.to = 0;
  rt.Send(unicast);
  wire.Pop();
  ASSERT_TRUE(rt.HasUnacked());
  rt.MarkLinkDown(0);
  EXPECT_FALSE(rt.HasUnacked());
  EXPECT_FALSE(rt.IsLinkUp(0));

  // A fresh unicast to the down link is forwarded best-effort, untracked;
  // a broadcast only awaits the up links.
  rt.Send(unicast);
  EXPECT_FALSE(wire.empty());
  wire.Pop();
  EXPECT_FALSE(rt.HasUnacked());
  rt.Send(EstimateBroadcast());
  EXPECT_EQ(wire.PopAll().size(), 3u);  // the down link's copy still goes out
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
  PerSiteWire wire(3);
  ReliableTransport rt(&wire, 3, ReliableTransportConfig{});
  int dead_links = 0;
  rt.SetDeadLinkHandler([&](int, const RuntimeMessage&) { ++dead_links; });

  rt.Send(EstimateBroadcast());
  const std::int64_t first_seq = wire.PopAll().front().seq;
  ASSERT_TRUE(rt.HasUnacked());

  // The coordinator process died: its unacked traffic is void — the
  // receivers are fine, so no dead-link verdicts and no give-ups.
  rt.AbandonSender(kCoordinatorId);
  EXPECT_FALSE(rt.HasUnacked());
  EXPECT_EQ(dead_links, 0);
  EXPECT_EQ(rt.stats().give_ups, 0);
  for (int i = 0; i < 16; ++i) rt.AdvanceRound();
  EXPECT_TRUE(wire.empty());  // nothing left to retransmit

  // A recovered coordinator keeps numbering where it left off, so the
  // receivers' dedup windows stay coherent across the crash.
  rt.Send(EstimateBroadcast());
  EXPECT_EQ(wire.Pop().seq, first_seq + 1);
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
  PerSiteWire wire(2);
  ReliableTransport rt(&wire, 2, ReliableTransportConfig{});
  RuntimeMessage to_site1 = EstimateBroadcast();
  to_site1.to = 1;
  std::vector<std::int64_t> site0_seqs;
  for (int i = 0; i < 6; ++i) {
    rt.Send(to_site1);
    EXPECT_EQ(DeliverTo(&rt, 1, wire.Pop()).size(), 1u);
    wire.Pop();  // site 1's ack
    rt.Send(EstimateBroadcast());
    const std::vector<RuntimeMessage> copies = wire.PopAll();
    ASSERT_EQ(copies.size(), 2u);
    site0_seqs.push_back(copies[0].seq);
    EXPECT_EQ(DeliverTo(&rt, 0, copies[0]).size(), 1u);
    EXPECT_EQ(DeliverTo(&rt, 1, copies[1]).size(), 1u);
    wire.PopAll();
  }
  EXPECT_EQ(site0_seqs, (std::vector<std::int64_t>{2, 4, 6, 8, 10, 12}));
  EXPECT_EQ(rt.stats().duplicates_suppressed, 0);
  EXPECT_EQ(rt.stats().acks_sent, 18);
}

TEST(ReliableTransportTest, WholeBroadcastsShareTheSeqStreamWithUnicasts) {
  // Untracked whole-delivered broadcasts draw from the same sequence as the
  // tracked unicasts: sites see the same gaps, and only unicasts are acked.
  InMemoryBus bus;
  ReliableTransport rt(&bus, 2, ReliableTransportConfig{});
  RuntimeMessage to_site1 = EstimateBroadcast();
  to_site1.to = 1;
  std::vector<std::int64_t> site0_seqs;
  for (int i = 0; i < 6; ++i) {
    rt.Send(to_site1);
    EXPECT_EQ(DeliverTo(&rt, 1, bus.Pop()).size(), 1u);
    EXPECT_TRUE(DeliverTo(&rt, kCoordinatorId, bus.Pop()).empty());  // ack
    rt.Send(EstimateBroadcast());
    const RuntimeMessage broadcast = bus.Pop();
    site0_seqs.push_back(broadcast.seq);
    EXPECT_EQ(DeliverTo(&rt, 0, broadcast).size(), 1u);
    EXPECT_EQ(DeliverTo(&rt, 1, broadcast).size(), 1u);
    EXPECT_TRUE(bus.empty());
  }
  EXPECT_EQ(site0_seqs, (std::vector<std::int64_t>{2, 4, 6, 8, 10, 12}));
  EXPECT_EQ(rt.stats().duplicates_suppressed, 0);
  EXPECT_EQ(rt.stats().acks_sent, 6);
  EXPECT_EQ(rt.stats().tracked_sends, 6);
  EXPECT_FALSE(rt.HasUnacked());
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

TEST(ReliableTransportTest, QueueCapEvictsALowerSiteThatSendsAgainFirst) {
  // Evictions move past the site lists they empty. A lower site that then
  // sends again holds the lowest (sender, seq) entry once more, so its
  // entry is the next victim.
  InMemoryBus bus;
  ReliableTransportConfig config;
  config.max_in_flight_per_peer = 2;
  ReliableTransport rt(&bus, 3, config);
  rt.Send(Report(0));  // (0, 1)
  rt.Send(Report(1));  // (1, 1)
  rt.Send(Report(2));  // (2, 1): evicts (0, 1)
  rt.Send(Report(2));  // (2, 2): evicts (1, 1), past site 0's empty list
  rt.Send(Report(0));  // (0, 2): evicts (2, 1), past site 1's
  rt.Send(Report(2));  // (2, 3): evicts (0, 2)
  EXPECT_EQ(rt.stats().queue_evictions, 4);
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
            (std::set<std::pair<int, std::int64_t>>{{2, 2}, {2, 3}}));
}

TEST(ReliableTransportTest, AckNamingAnOutOfRangeEndpointIsIgnored) {
  PerSiteWire wire(2);
  ReliableTransport rt(&wire, 2, ReliableTransportConfig{});
  rt.Send(EstimateBroadcast());  // (coordinator, 1), awaiting sites 0 and 1
  rt.Send(Report(0));            // (0, 1), awaiting the coordinator
  wire.PopAll();

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
  EXPECT_TRUE(wire.empty());
  ASSERT_TRUE(rt.HasUnacked());

  // Nothing was released: every awaited destination still gets its copy.
  rt.AdvanceRound();
  rt.AdvanceRound();
  std::set<std::pair<int, int>> copies;  // (from, to)
  for (const RuntimeMessage& copy : wire.PopAll()) {
    copies.emplace(copy.from, copy.to);
  }
  EXPECT_EQ(copies, (std::set<std::pair<int, int>>{{kCoordinatorId, 0},
                                                   {kCoordinatorId, 1},
                                                   {0, kCoordinatorId}}));
}

// ── Behaviour transcript ─────────────────────────────────────────────────
//
// A seeded script drives every entry point over a recording lower
// transport, once per-site and once delivering broadcasts whole: unicasts
// both ways, broadcasts, untracked heartbeats, drops, duplicates and
// reordering of popped messages (acks included), rounds, link
// administration and abandoned senders. Every lower Send, every
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
/// With `per_site` it decides each broadcast destination's fate on its own
/// readdressed copy (see RunTranscript's route), as a faulted SimTransport
/// does; without, it delivers broadcasts whole.
class RecordingTransport final : public Transport {
 public:
  RecordingTransport(Digest* digest, bool per_site)
      : digest_(digest), per_site_(per_site) {}
  bool DeliversWhole(const RuntimeMessage& /*message*/) const override {
    return !per_site_;
  }
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
  bool per_site_;
};

struct Transcript {
  std::uint64_t digest = 0;
  long sends = 0;
  long dead_links = 0;
  ReliableTransport::Stats stats;
};

Transcript RunTranscript(std::uint64_t seed, bool per_site) {
  constexpr int kSites = 4;
  Digest digest;
  RecordingTransport wire(&digest, per_site);
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
  // site's copy independently, and a per-site wire readdresses each copy.
  const auto route = [&](const RuntimeMessage& m, double site_loss) {
    if (m.to != kBroadcastId) {
      deliver(m.to, m);
      return;
    }
    for (int s = 0; s < kSites; ++s) {
      if (rng.NextBernoulli(site_loss)) continue;
      RuntimeMessage copy = m;
      if (per_site) copy.to = s;
      deliver(s, copy);
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

/// Reference dedup window: a floor plus the sorted seen seqs above it,
/// compacted to `limit` seqs by promoting the lowest into the floor — the
/// layout the transport's gap-based window replaced, and the definition of
/// the verdicts and evictions that window must reproduce.
class SortedSeqWindow {
 public:
  explicit SortedSeqWindow(std::size_t limit) : limit_(limit) {}

  /// True if `seq` is fresh; adds each promotion to `*evictions`.
  bool Deliver(std::int64_t seq, long* evictions) {
    if (seq <= floor_ || std::binary_search(seqs_.begin(), seqs_.end(), seq)) {
      return false;
    }
    seqs_.insert(std::lower_bound(seqs_.begin(), seqs_.end(), seq), seq);
    while (seqs_.size() > limit_) {
      floor_ = seqs_.front();
      seqs_.pop_front();
      ++*evictions;
    }
    return true;
  }
  std::int64_t floor() const { return floor_; }
  /// True if `seq` is the next seq past a window without gaps: the arrival
  /// that, as a whole broadcast, takes the transport's in-order step.
  bool InOrder(std::int64_t seq) const {
    const std::int64_t top = seqs_.empty() ? floor_ : seqs_.back();
    return seq == top + 1 &&
           static_cast<std::int64_t>(seqs_.size()) == top - floor_;
  }
  bool full() const { return seqs_.size() == limit_; }

 private:
  std::size_t limit_;
  std::int64_t floor_ = 0;
  std::deque<std::int64_t> seqs_;
};

TEST(ReliableTransportTest, DedupWindowMatchesTheSortedSeqReference) {
  constexpr int kSites = 3;
  for (const int limit : {8, 16, 1024}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "window " << limit << " seed " << seed);
      InMemoryBus bus;
      ReliableTransportConfig config;
      config.dedup_window = limit;
      ReliableTransport rt(&bus, kSites, config);
      Rng rng(seed);

      // One stream per site and direction: the coordinator's traffic at
      // site s (pair s) and site s's traffic at the coordinator (pair
      // kSites + s). Each keeps the sender's last seq, the seqs it skipped
      // (late fills to come) and the seqs it delivered (duplicates).
      struct Stream {
        std::int64_t next = 0;
        std::vector<std::int64_t> skipped;
        std::vector<std::int64_t> delivered;
      };
      std::vector<Stream> streams(2 * kSites);
      std::vector<SortedSeqWindow> reference(2 * kSites,
                                             SortedSeqWindow(limit));
      long duplicates = 0;
      long evictions = 0;
      long acks = 0;
      // Arrivals that took the in-order step, and those of them that also
      // promoted a seq out of a full window.
      long in_order_steps = 0;
      long promoting_steps = 0;
      const auto pick = [&](const std::vector<std::int64_t>& seqs) {
        return seqs[rng.NextBounded(seqs.size())];
      };
      const auto deliver = [&](int pair, std::int64_t seq,
                               bool whole = false) {
        const int site = pair % kSites;
        const bool downlink = pair < kSites;
        RuntimeMessage m = downlink ? EstimateBroadcast() : Report(site);
        // Some downlink traffic comes as a whole-delivered broadcast, which
        // is deduped like a unicast but never acked.
        if (downlink && !whole && rng.NextBounded(4) != 0) m.to = site;
        m.seq = seq;
        if (m.to == kBroadcastId && reference[pair].InOrder(seq)) {
          ++in_order_steps;
          if (reference[pair].full()) ++promoting_steps;
        }
        const bool fresh = reference[pair].Deliver(seq, &evictions);
        if (!fresh) ++duplicates;
        if (m.to != kBroadcastId) ++acks;
        const std::size_t got =
            DeliverTo(&rt, downlink ? site : kCoordinatorId, m).size();
        while (!bus.empty()) bus.Pop();  // the acks
        ASSERT_EQ(got, fresh ? 1u : 0u) << "pair " << pair << " seq " << seq;
        ASSERT_EQ(rt.stats().duplicates_suppressed, duplicates);
        ASSERT_EQ(rt.stats().dedup_evictions, evictions);
        ASSERT_EQ(rt.stats().acks_sent, acks);
        if (fresh) streams[pair].delivered.push_back(seq);
      };

      for (int step = 0; step < 6000; ++step) {
        const int pair = static_cast<int>(rng.NextBounded(2 * kSites));
        Stream& s = streams[pair];
        const std::uint64_t op = rng.NextBounded(100);
        if (op < 50 || s.delivered.empty()) {  // an in-order run
          const int run = 1 + static_cast<int>(rng.NextBounded(12));
          for (int k = 0; k < run; ++k) deliver(pair, ++s.next);
        } else if (op < 65) {  // a gap, then the seq past it
          const int gap = 1 + static_cast<int>(rng.NextBounded(6));
          for (int k = 0; k < gap; ++k) s.skipped.push_back(++s.next);
          deliver(pair, ++s.next);
        } else if (op < 80 && !s.skipped.empty()) {  // a late fill
          deliver(pair, pick(s.skipped));
        } else if (op < 90) {  // an exact duplicate
          deliver(pair, pick(s.delivered));
        } else if (op < 97) {  // at or below the floor (or just above it)
          const std::int64_t below =
              static_cast<std::int64_t>(rng.NextBounded(3)) - 1;
          // Seq 0 is unsequenced control traffic, which skips dedup.
          deliver(pair, std::max<std::int64_t>(
                            1, reference[pair].floor() - below));
        } else {  // a seq far ahead; its gap's ends may be filled later
          const std::int64_t jump = 1000000;
          s.skipped.push_back(s.next + 1);
          s.skipped.push_back(s.next + jump / 2);
          s.skipped.push_back(s.next + jump - 1);
          s.next += jump;
          deliver(pair, s.next);
        }
        if (HasFatalFailure()) return;
      }
      EXPECT_GT(in_order_steps, 0);
      // Then a run of whole broadcasts in order at every site, long enough
      // to promote the window past every hole the steps above left: the
      // rest of the run takes the in-order step, each arrival promoting.
      const long steps_before_run = in_order_steps;
      const long promoting_before_run = promoting_steps;
      for (int site = 0; site < kSites; ++site) {
        for (int k = 0; k < 2 * limit + 16; ++k) {
          deliver(site, ++streams[site].next, /*whole=*/true);
          if (HasFatalFailure()) return;
        }
      }
      EXPECT_GE(in_order_steps - steps_before_run, kSites * (limit + 16));
      EXPECT_GE(promoting_steps - promoting_before_run, kSites * (limit + 16));
      EXPECT_GT(rt.stats().dedup_evictions, 0);
      EXPECT_GT(rt.stats().duplicates_suppressed, 0);
    }
  }
}

TEST(ReliableTransportTest, TranscriptMatchesGoldens) {
  struct Golden {
    bool per_site;
    std::uint64_t seed;
    std::uint64_t digest;
    long sends;
    long dead_links;
    ReliableTransport::Stats stats;
  };
  // Stats order: tracked_sends, retransmissions, acks_sent,
  // duplicates_suppressed, give_ups, queue_evictions, dedup_evictions.
  // Over the per-site wire every broadcast copy is tracked and acked; over
  // the whole-delivering one broadcasts are sequenced only.
  const Golden goldens[] = {
      {true, 1, 0x9b82079fb4cdd61eULL, 1022, 13,
       {160, 220, 587, 256, 15, 150, 267}},
      {true, 2, 0xb92f40d51182a1f0ULL, 987, 10,
       {157, 202, 557, 222, 13, 139, 271}},
      {true, 3, 0x6803a19ef01b113aULL, 1015, 7,
       {177, 222, 561, 247, 11, 152, 250}},
      {false, 1, 0x97b87d6d1ede632eULL, 610, 5,
       {114, 118, 274, 151, 9, 78, 261}},
      {false, 2, 0x2e4b0ba5770e4d53ULL, 619, 8,
       {119, 118, 279, 148, 14, 79, 254}},
      {false, 3, 0x84b0c42b913099a4ULL, 669, 6,
       {133, 126, 305, 147, 9, 84, 260}},
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(testing::Message() << "seed " << golden.seed << " per_site "
                                    << golden.per_site);
    const Transcript t = RunTranscript(golden.seed, golden.per_site);
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

#ifndef SGM_RUNTIME_RELIABLE_TRANSPORT_H_
#define SGM_RUNTIME_RELIABLE_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/rng.h"
#include "obs/metric_registry.h"
#include "runtime/transport.h"

namespace sgm {

struct Telemetry;
class RoundClock;

/// Tuning knobs of the ack/retransmit layer. Every stochastic choice (the
/// retransmission jitter) draws from the single `seed`, so dst_stress
/// replays stay bit-for-bit identical.
struct ReliableTransportConfig {
  std::uint64_t seed = 7;
  /// Retransmission attempts per message per destination before the link is
  /// reported dead to the failure-detector hook. Bounds the quiescence loop:
  /// a message is in flight for at most max_retransmits backoff periods.
  int max_retransmits = 4;
  /// First retransmission fires this many transport rounds after the
  /// original send.
  int base_backoff_rounds = 1;
  /// Exponential backoff ceiling (rounds), before jitter.
  int max_backoff_rounds = 8;
  /// Cap on tracked in-flight messages awaiting any single destination.
  /// When a new tracked send would exceed it, the oldest entry still
  /// awaiting that destination releases its expectation (best-effort from
  /// then on, counted in queue_evictions), so a long-unresponsive peer —
  /// a dead link the failure detector has not yet condemned, or a crashed
  /// coordinator — cannot grow the retransmit queue without bound.
  int max_in_flight_per_peer = 256;
  /// Receive-side dedup window per (receiver, sender) pair: seqs retained
  /// above the compaction floor. Duplicates arrive within
  /// max_delay + max_backoff * max_retransmits rounds of the original — a
  /// handful of messages — so the default is orders of magnitude above the
  /// correctness requirement while keeping memory bounded.
  int dedup_window = 1024;
  /// Time source for the retransmission round counter (not owned, nullable).
  /// Null keeps the built-in logical counter — one round per AdvanceRound()
  /// call, the deterministic-simulation behaviour. The socket runtime
  /// injects a MonotonicRoundClock so backoff deadlines track real elapsed
  /// time instead of driver drains (see runtime/round_clock.h).
  RoundClock* round_clock = nullptr;
};

/// Reliability decorator over any Transport: per-sender sequence numbers,
/// per-destination acks, retransmission with exponential backoff plus
/// deterministic seeded jitter, and receive-side duplicate suppression.
///
/// Sits between the protocol nodes and the (possibly fault-injecting) lower
/// transport. The runtime driver is the event loop: it forwards every
/// delivered message through OnDeliver() (which consumes acks, suppresses
/// duplicates and emits acks for fresh data) and calls AdvanceRound()
/// whenever the network drains, which is when due retransmissions fire.
///
/// What is sequenced and tracked: the seven protocol data kinds plus
/// kRejoinGrant. kAck is never tracked (no ack-of-ack), and kHeartbeat /
/// kRejoinRequest are fire-and-forget — the protocol re-emits them
/// periodically, so transport-level retries would only add traffic.
///
/// Accounting: original sends pass through with `retransmit == false` and
/// count toward the paper-comparable figures in the layer below;
/// retransmitted copies are flagged `retransmit = true` and acks are
/// control messages, so both land only in the transport totals. With a
/// fault-free network nothing is ever retransmitted and the
/// paper-comparable counters are byte-identical to a wiring without this
/// layer (the transport-parity stress leg enforces this).
class ReliableTransport final : public Transport {
 public:
  /// Point-in-time view of the layer's activity counters: one struct
  /// instead of loose per-counter accessors, so call sites snapshot all of
  /// them coherently and new counters ride along without API churn. Served
  /// into a MetricRegistry as `transport.*` by PublishMetrics.
  struct Stats {
    /// Sequenced original sends that entered retransmission tracking.
    long tracked_sends = 0;
    /// Ack-timeout retransmission copies placed on the wire.
    long retransmissions = 0;
    /// Transport-level acks emitted (one per fresh or re-seen delivery).
    long acks_sent = 0;
    /// Receive-side duplicates dropped (fault-injected or retransmit
    /// overlap), each re-acked in case the first ack was lost.
    long duplicates_suppressed = 0;
    /// Messages abandoned after max_retransmits (dead-link reports fired).
    long give_ups = 0;
    /// Per-peer queue-cap evictions: tracked expectations released because
    /// max_in_flight_per_peer was reached for their destination.
    long queue_evictions = 0;
    /// Dedup-window compactions: seen-seqs promoted into the floor once the
    /// window exceeded dedup_window entries.
    long dedup_evictions = 0;
  };

  /// `lower` is not owned and must outlive this object. `telemetry` is
  /// optional (nullable): when present, retransmissions/give-ups/duplicate
  /// suppressions are traced as reliability events.
  ReliableTransport(Transport* lower, int num_sites,
                    const ReliableTransportConfig& config,
                    Telemetry* telemetry = nullptr);

  /// Sender side: stamps a sequence number on trackable messages, records
  /// them for retransmission, and forwards to the lower transport.
  void Send(const RuntimeMessage& message) override;

  /// Receive side, called by the driver for each message popped off the
  /// network, once per destination (`receiver` is a site id or
  /// kCoordinatorId; broadcast fan-out calls this once per site). Consumes
  /// acks, drops duplicates (re-acking them, in case the first ack was
  /// lost), acks fresh sequenced data, and appends to `deliver` the
  /// messages the node should actually process.
  void OnDeliver(int receiver, const RuntimeMessage& message,
                 std::vector<RuntimeMessage>* deliver);

  /// Advances the retransmission clock — one round with the built-in
  /// logical counter, or to the injected RoundClock's current round — and
  /// resends every unacked tracked message whose backoff deadline has
  /// expired. Messages that exhaust max_retransmits are abandoned and their
  /// unreachable site destinations reported through the dead-link handler.
  void AdvanceRound();

  /// True while any tracked message still awaits an ack — the driver must
  /// keep advancing rounds before declaring the network quiescent.
  bool HasUnacked() const { return in_flight_count_ > 0; }

  /// Marks a site link administratively down (failure detector verdict):
  /// pending expectations on it are released, and it is excluded from
  /// broadcast ack-expectation until marked up again. Unicasts to a down
  /// link are forwarded best-effort without tracking.
  void MarkLinkDown(int site);
  void MarkLinkUp(int site);
  bool IsLinkUp(int site) const;

  /// Drops every tracked in-flight entry originated by `sender` without
  /// firing the dead-link handler: the sending endpoint itself is gone (a
  /// coordinator crash), so its unacked traffic is void — not evidence of
  /// dead receivers. Sequence counters and dedup windows are untouched; a
  /// recovered endpoint keeps numbering from where it left off.
  void AbandonSender(int sender);

  /// Handler invoked when retransmissions of `message` to `site` were
  /// exhausted (a liveness signal for the failure detector; the message
  /// tells the coordinator *what* was lost — an undelivered anchor warrants
  /// a re-grant on next contact). Coordinator-side give-ups (site →
  /// coordinator traffic that was never acked) do not fire it — the
  /// coordinator is assumed reachable.
  void SetDeadLinkHandler(
      std::function<void(int site, const RuntimeMessage& message)> handler) {
    dead_link_handler_ = std::move(handler);
  }

  Stats stats() const { return stats_; }
  /// Mirrors the Stats counters into `registry` under `transport.*`
  /// (transport.retransmissions, transport.acks_sent, ...). The handles are
  /// resolved on the first call and cached, so `registry` must outlive
  /// this transport.
  void PublishMetrics(MetricRegistry* registry) const;

 private:
  /// A tracked message still awaiting acks. It lives in its sender's
  /// in-flight list, which is kept in seq order.
  struct InFlight {
    RuntimeMessage message;  ///< original, retransmit flag unset
    /// Destinations yet to ack: a bitset over endpoint slots (see Slot)
    /// plus its population count. A site's message can only await the
    /// coordinator, so its set is a single word.
    std::vector<std::uint64_t> awaiting;
    int awaiting_count = 0;
    int attempts = 0;    ///< retransmissions performed so far
    long due_round = 0;  ///< next retransmission round
  };

  /// Receive-side dedup state of one (receiver, sender) pair: every seq at
  /// or below `floor` counts as seen, and `seqs[head..]` holds the seen seqs
  /// above it in ascending order. Compacted to at most dedup_window seqs
  /// (duplicates arrive within a bounded number of rounds, so the window
  /// never misjudges); the compacted prefix `seqs[..head)` is reclaimed
  /// once it outgrows the live part.
  struct SeenWindow {
    std::int64_t floor = 0;
    std::vector<std::int64_t> seqs;
    std::size_t head = 0;
  };

  /// Array index of an endpoint: the coordinator is 0, site s is s + 1.
  static int Slot(int endpoint) { return endpoint + 1; }
  bool IsEndpoint(int endpoint) const {
    return endpoint >= kCoordinatorId && endpoint < num_sites_;
  }
  static bool Tracked(const RuntimeMessage& message);
  long NextBackoff(int attempts);
  void Ack(int receiver, const RuntimeMessage& message);
  void Resolve(int sender, std::int64_t seq, int receiver);
  /// True while `entry` still awaits an ack from `dest`.
  static bool Awaits(const InFlight& entry, int dest);
  /// Releases `dest` from an entry's awaiting set, maintaining the per-peer
  /// pending count. Returns true if the set is now empty.
  bool ReleaseAwait(InFlight* entry, int dest);
  /// Frees one queue slot for `dest` by evicting the oldest in-flight
  /// expectation on it (oldest in (sender, seq) order, coordinator first —
  /// per sender that is send order, which is what matters: entries piling
  /// up on one peer come from the one endpoint still talking to it).
  void EvictOldestFor(int dest);
  /// The dedup window for sequenced traffic from `sender` at `receiver`.
  SeenWindow& WindowFor(int receiver, int sender);

  Transport* lower_;
  int num_sites_;
  ReliableTransportConfig config_;
  Telemetry* telemetry_;
  Rng rng_;
  std::function<void(int, const RuntimeMessage&)> dead_link_handler_;

  std::vector<bool> link_up_;

  // Flat per-endpoint state, indexed by Slot(). Every sequenced message has
  // the coordinator at exactly one end (a site talks only to the
  // coordinator; the coordinator to one site or to all), so the two ends of
  // any sequenced message are one site plus a direction.

  /// Last sequence number stamped per sender.
  std::vector<std::int64_t> next_seq_;
  /// Tracked unacked messages per sender, each list in seq order.
  std::vector<std::vector<InFlight>> in_flight_;
  long in_flight_count_ = 0;
  /// In-flight expectations per destination, bounded by
  /// max_in_flight_per_peer via eviction.
  std::vector<long> pending_per_dest_;
  /// Dedup windows, one per site and direction: the coordinator's traffic
  /// as site i receives it, and site i's traffic at the coordinator.
  std::vector<SeenWindow> seen_at_site_;
  std::vector<SeenWindow> seen_at_coordinator_;

  long round_ = 0;
  Stats stats_;
  /// PublishMetrics' handles, resolved on its first call.
  mutable MetricRows<Stats> metric_rows_;
};

}  // namespace sgm

#endif  // SGM_RUNTIME_RELIABLE_TRANSPORT_H_

#ifndef SGM_RUNTIME_RELIABLE_TRANSPORT_H_
#define SGM_RUNTIME_RELIABLE_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "obs/metric_registry.h"
#include "runtime/transport.h"

namespace sgm {

struct Telemetry;

/// Tuning knobs of the ack/retransmit layer. Every stochastic choice (the
/// retransmission jitter) draws from the single `seed`, so dst_stress
/// replays stay bit-for-bit identical.
struct ReliableTransportConfig {
  std::uint64_t seed = 7;
  /// Retransmission attempts per message per destination before the link is
  /// reported dead to the failure-detector hook. Bounds the quiescence loop:
  /// a message is in flight for at most max_retransmits backoff periods.
  int max_retransmits = 4;
  /// Receive-side dedup window per (receiver, sender) pair: the number of
  /// seen seqs retained above the floor; past it the lowest is promoted
  /// into the floor. Duplicates arrive within max_delay plus
  /// max_retransmits backoff periods (each at most 9 rounds) of the
  /// original — a handful of messages — so the default is orders of
  /// magnitude above the correctness requirement. A window stores the
  /// unseen gaps among those seqs, not the seqs, so in-order traffic costs
  /// it no memory.
  int dedup_window = 1024;
};

/// Reliability decorator over any Transport: per-sender sequence numbers,
/// per-destination acks, retransmission with exponential backoff plus
/// deterministic seeded jitter, and receive-side duplicate suppression.
///
/// Sits between the protocol nodes and the (possibly fault-injecting) lower
/// transport. The runtime driver is the event loop: it passes every
/// delivered message through Receive() (which consumes acks, suppresses
/// duplicates and emits acks for fresh data) and hands the node what it
/// admits, and it calls AdvanceRound() whenever the network drains, which
/// is when due retransmissions fire.
///
/// Only RuntimeDriver runs this layer: its SimTransport models a lossy
/// datagram network. The socket tier does not. A TCP stream already
/// delivers in order within its connection, and a sequence space that
/// belongs to one process cannot be keyed by site id across a restart (a
/// new process numbers from 1 again, and its peer's window would drop its
/// frames as duplicates), so CoordinatorServer and SiteClient hand decoded
/// frames straight to their node (DESIGN.md §11).
///
/// What is sequenced and tracked: the seven protocol data kinds plus
/// kRejoinGrant. kAck is never tracked (no ack-of-ack), and kHeartbeat /
/// kRejoinRequest are fire-and-forget — the protocol re-emits them
/// periodically, so transport-level retries would only add traffic.
///
/// Who acks what: every unicast is acked by its one receiver. A coordinator
/// broadcast is acked per site only over a link that decides each
/// destination's fate on its own readdressed copy (a faulted SimTransport).
/// A link that delivers broadcasts whole (Transport::DeliversWhole: the
/// in-memory bus, a SimTransport whose faults do not apply) loses a copy
/// only together with its receiver — a crashed node — which no ack can
/// repair, so such a broadcast is sequenced (receivers still dedup) but
/// neither tracked nor acked: it costs one message. The epoch fence and the
/// rejoin path, not acks, resynchronize a receiver that lost one.
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
    /// Transport-level acks emitted: one per fresh or re-seen delivery of a
    /// unicast or of a readdressed broadcast copy; a whole-delivered
    /// broadcast draws none.
    long acks_sent = 0;
    /// Receive-side duplicates dropped (fault-injected or retransmit
    /// overlap), each re-acked in case the first ack was lost.
    long duplicates_suppressed = 0;
    /// Messages abandoned after max_retransmits (dead-link reports fired).
    long give_ups = 0;
    /// Dedup-window compactions: seen seqs promoted into the floor once
    /// more than dedup_window were retained above it.
    long dedup_evictions = 0;
  };

  /// `lower` is not owned and must outlive this object. `telemetry` is
  /// optional (nullable): when present, retransmissions/give-ups/duplicate
  /// suppressions are traced as reliability events.
  ReliableTransport(Transport* lower, int num_sites,
                    const ReliableTransportConfig& config,
                    Telemetry* telemetry = nullptr);

  /// Sender side: stamps a sequence number on trackable messages, records
  /// the ones an ack can confirm for retransmission (all but a broadcast
  /// the lower transport delivers whole), and forwards to it.
  void Send(const RuntimeMessage& message) override;

  /// Receive side, called by the driver for each message popped off the
  /// network, once per destination (`receiver` is a site id or
  /// kCoordinatorId; broadcast fan-out calls this once per site). Consumes
  /// acks, drops duplicates (re-acking them, in case the first ack was
  /// lost), acks fresh sequenced data — except a message still addressed to
  /// kBroadcastId, which came whole and is awaited by no one — and returns
  /// true when `receiver`'s node should process `message`.
  ///
  /// Inline here is the fan-out's common case: a coordinator broadcast,
  /// still whole, that is the next seq at a site whose window has no holes.
  /// Admit plus Trim would move only `top` and `seen` (or, at a full
  /// window, the floor), so this does exactly that; everything else — acks,
  /// control, gaps, duplicates, readdressed copies — takes ReceiveGeneral.
  bool Receive(int receiver, const RuntimeMessage& message) {
    if (message.to == kBroadcastId && message.from == kCoordinatorId &&
        message.type != RuntimeMessage::Type::kAck) {
      SGM_CHECK(receiver >= 0 && receiver < num_sites_);
      SeenWindow& window = seen_at_site_[receiver];
      if (message.seq == window.top + 1 && window.holes.empty()) {
        window.top = message.seq;
        if (window.seen < config_.dedup_window) {
          ++window.seen;
        } else {
          ++window.floor;
          ++stats_.dedup_evictions;
        }
        return true;
      }
    }
    return ReceiveGeneral(receiver, message);
  }

  /// Receive() that appends an admitted message to `deliver`, for callers
  /// that collect what survives.
  void OnDeliver(int receiver, const RuntimeMessage& message,
                 std::vector<RuntimeMessage>* deliver);

  /// Advances the retransmission clock by one round and resends every
  /// unacked tracked message whose backoff deadline has expired. Messages
  /// that exhaust max_retransmits are abandoned and their unreachable site
  /// destinations reported through the dead-link handler.
  void AdvanceRound();

  /// True while any tracked message still awaits an ack — the driver must
  /// keep advancing rounds before declaring the network quiescent.
  bool HasUnacked() const { return in_flight_count_ > 0; }

  /// Marks a site link administratively down (failure detector verdict):
  /// pending expectations on it are released, and it is excluded from
  /// per-destination broadcast ack-expectation until marked up again.
  /// Unicasts to a down link are forwarded best-effort without tracking.
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

  /// Site `site`'s view of the coordinator's seq stream: the highest seq
  /// it took, and how many seqs between its window's floor and that one it
  /// has not. Diagnostic; tests read it.
  struct SiteWindowView {
    std::int64_t top = 0;
    std::int64_t missing = 0;
  };
  SiteWindowView SiteWindow(int site) const;

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
    /// plus its population count. Only a broadcast over a per-destination
    /// link awaits more than one; a site's message can only await the
    /// coordinator, so its set is a single word.
    std::vector<std::uint64_t> awaiting;
    int awaiting_count = 0;
    int attempts = 0;    ///< retransmissions performed so far
    long due_round = 0;  ///< next retransmission round
  };

  /// Receive-side dedup state of one (receiver, sender) pair: every seq at
  /// or below `floor` counts as seen, and so does every seq up to `top`
  /// outside `holes[head..]`, the unseen ranges in ascending order. `seen`
  /// counts the seen seqs above the floor. In-order arrival moves only
  /// `top` and `seen`; a gap adds one hole and a late fill shrinks or
  /// splits one, so memory follows the gaps, not the history: a seen seq
  /// closes every hole, so there are at most `seen` of them. Trim drops a
  /// fully consumed `holes`, so after every admission "no holes" reads
  /// `holes.empty()`.
  struct SeenWindow {
    struct Hole {
      std::int64_t first;
      std::int64_t last;
    };
    /// Records `seq` as seen; false if it already was (a duplicate).
    bool Admit(std::int64_t seq);
    /// Promotes the lowest seen seqs into the floor until at most `limit`
    /// remain above it (duplicates arrive within a bounded number of
    /// rounds, so the window never misjudges), and returns how many were
    /// promoted. The consumed prefix `holes[..head)` is reclaimed once it
    /// outgrows the live part.
    long Trim(long limit);

    std::int64_t floor = 0;
    std::int64_t top = 0;
    long seen = 0;
    std::vector<Hole> holes;
    std::size_t head = 0;
  };

  /// Array index of an endpoint: the coordinator is 0, site s is s + 1.
  static int Slot(int endpoint) { return endpoint + 1; }
  bool IsEndpoint(int endpoint) const {
    return endpoint >= kCoordinatorId && endpoint < num_sites_;
  }
  static bool Tracked(const RuntimeMessage& message);
  /// Receive()'s path for everything but an in-order whole broadcast.
  bool ReceiveGeneral(int receiver, const RuntimeMessage& message);
  long NextBackoff(int attempts);
  void Ack(int receiver, const RuntimeMessage& message);
  void Resolve(int sender, std::int64_t seq, int receiver);
  /// True while `entry` still awaits an ack from `dest`.
  static bool Awaits(const InFlight& entry, int dest);
  /// Releases `dest` from an entry's awaiting set. Returns true if the set
  /// is now empty.
  static bool ReleaseAwait(InFlight* entry, int dest);
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
  /// Tracked unacked messages per sender, each list in seq order. Every
  /// entry is acked, released or given up within max_retransmits backoff
  /// periods, and the driver drains the network until none is left, so no
  /// list outlives the drain that follows its sends.
  std::vector<std::vector<InFlight>> in_flight_;
  long in_flight_count_ = 0;
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

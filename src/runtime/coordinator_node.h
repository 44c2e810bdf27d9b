#ifndef SGM_RUNTIME_COORDINATOR_NODE_H_
#define SGM_RUNTIME_COORDINATOR_NODE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "functions/monitored_function.h"
#include "runtime/checkpoint.h"
#include "runtime/failure_detector.h"
#include "runtime/message.h"
#include "runtime/reliable_transport.h"
#include "runtime/site_node.h"  // RuntimeConfig
#include "runtime/transport.h"

namespace sgm {

/// The top-tier node of the SGM runtime: collects violations, runs the
/// partial-synchronization vetting over drift reports, escalates to full
/// synchronizations, and broadcasts fresh estimates.
///
/// Driven entirely by messages plus one BeginCycle() tick; holds no site
/// data beyond what the protocol legitimately ships.
///
/// ── Epoch fencing ───────────────────────────────────────────────────────
/// The coordinator is the epoch authority: every sync round (probe or full
/// collection) increments a monotone epoch, stamped on all outgoing
/// messages and echoed back by the sites. Inbound data messages from an
/// older epoch are answers to a round that already completed — they are
/// dropped and counted, never applied. Control messages (heartbeats,
/// rejoin requests) are exempt: a stale epoch there is exactly the signal
/// that a site fell behind.
///
/// ── Failure handling ────────────────────────────────────────────────────
/// A FailureDetector tracks per-site liveness from the messages flowing
/// through OnMessage (plus standalone heartbeats from quiet sites) and,
/// when a ReliableTransport is attached (the simulated runtime), from its
/// transport-level give-ups. Dead sites leave the sample pool — the HT probe
/// estimate reweights over the live count, and full-sync completion only
/// waits on live sites. A dead site that reappears with a *current* epoch
/// is revived directly (it missed nothing); one that reappears behind goes
/// through the rejoin handshake: kRejoinGrant re-anchors it (estimate +
/// ε_T + epoch), its fresh kStateReport completes the handshake, and a
/// full resync is scheduled shortly after so its data re-enters the
/// estimate. Flapping sites are quarantined by the detector and their
/// grants deferred.
///
/// ── Crash consistency ───────────────────────────────────────────────────
/// With a CheckpointStore configured, the coordinator persists a full
/// snapshot every checkpoint_interval_cycles and write-ahead-logs every
/// externally visible state mutation between snapshots (epoch bumps, sync
/// commits, partial resolutions, rejoin grants) — each record appended
/// *before* the message that announces it hits the wire, so no epoch or
/// estimate a site has ever seen can be lost by a crash. Recover() rebuilds
/// from the newest decodable snapshot plus its committed WAL suffix, bumps
/// the epoch once more so every pre-crash in-flight frame is fenced by the
/// ordinary epoch machinery, and re-anchors all reachable sites through the
/// rejoin-grant handshake before monitoring resumes. (Over sockets those
/// grants go out before any session exists and are lost; each site is
/// re-granted from its first stale-epoch frame instead, DESIGN.md §10.3.) In-flight probe or
/// collection rounds are deliberately not checkpointed: recovery restores
/// to kIdle and the scheduled-resync machinery re-derives anything lost.
class CoordinatorNode {
 public:
  CoordinatorNode(int num_sites, const MonitoredFunction& function,
                  const RuntimeConfig& config, Transport* transport);

  /// After a collection round in which *no* report survived (e.g. the very
  /// first request on a lossy network), the coordinator goes idle and
  /// retries the full sync this many cycles later.
  static constexpr int kEmptyCollectionRetryCycles = 1;
  /// After a degraded sync (stale last-known vectors folded in), a
  /// follow-up full sync re-establishes a consistent anchor this many
  /// cycles out, repeating until one completes cleanly.
  static constexpr int kDegradedResyncCycles = 5;
  /// Per-epoch collection deadline: when the transport goes quiescent with
  /// live-site reports still missing, the coordinator re-requests the
  /// stragglers (unicast, same epoch) at most this many times before
  /// completing the sync degraded.
  static constexpr int kMaxSyncRetries = 2;
  /// A rejoined site's fresh state re-enters the estimate via a scheduled
  /// full resync this many cycles after its rejoin handshake completes.
  static constexpr int kRejoinResyncCycles = 2;
  /// After recovery reconciliation (re-anchoring grants), a full resync is
  /// scheduled this many cycles out so drift accumulated during the outage
  /// re-enters the estimate promptly.
  static constexpr int kRecoveryResyncCycles = 2;

  /// Wires the reliability layer in: transport give-ups feed the failure
  /// detector, and link up/down administration follows site liveness.
  /// Optional — without it the coordinator runs over a bare transport, as
  /// the socket tier does over TCP.
  void AttachReliability(ReliableTransport* reliable);

  /// Kicks off the initialization synchronization (first full state
  /// collection); call once after all sites hold their first vectors.
  /// Writes the baseline snapshot first when a checkpoint store is
  /// configured, so there is always a recovery candidate.
  void Start();

  /// Restores coordinator state from the configured checkpoint store after
  /// a crash: newest decodable snapshot + committed WAL records, epoch
  /// fence bump, fresh post-recovery snapshot, then a site reconciliation
  /// round over the rejoin-grant handshake. Returns false when the store
  /// holds no decodable snapshot (the caller decides whether that is
  /// fatal). Call on a freshly constructed node, in place of Start().
  bool Recover();

  /// Marks the beginning of an update cycle: completes (degraded) a
  /// collection the previous cycle left open, advances the failure
  /// detector's clock, applies newly-detected deaths to the link state, and
  /// runs due scheduled resyncs.
  void BeginCycle();

  /// Handles a site message; may emit probe/state requests, resolutions,
  /// new estimates or rejoin grants.
  void OnMessage(const RuntimeMessage& message);

  /// Called by the driver when the transport has drained: an in-flight
  /// probe is then complete (every first-trial report has arrived) and the
  /// partial-synchronization decision is taken; an in-flight collection
  /// either re-requests stragglers (bounded by kMaxSyncRetries) or
  /// completes, degraded if live reports are still missing.
  void OnQuiescent();

  /// Barrier-deadline feedback from a deadline-bounded barrier driver
  /// (the socket server's AwaitQuiescence, or the stress harness's stall
  /// schedule). A miss feeds the failure detector's lagging escalation; on
  /// the kLagging transition the site's pending ack expectations are
  /// released (link administratively down) so barriers and retransmissions
  /// stop waiting on it, while its TCP session — if any — stays up.
  /// Returns true exactly when this call quarantined the site.
  bool OnBarrierDeadlineMissed(int site);
  /// The site acked its barrier within the deadline: resets its
  /// consecutive-miss count.
  void OnBarrierDeadlineMet(int site);
  /// Marks the current cycle degraded: its barrier closed over the
  /// responsive quorum with `missing_sites` sites still silent. Called at
  /// most once per cycle by the barrier driver.
  void RecordDegradedCycle(int missing_sites);
  /// Cycles whose barrier closed over a responsive quorum only.
  long degraded_cycles() const { return degraded_cycles_; }

  /// Forces a snapshot write outside the periodic schedule (the graceful
  /// shutdown path's final checkpoint). No-op without a store.
  void FlushCheckpoint() { WriteSnapshot(); }

  /// The continuous query answer: is f(v(t)) above the threshold?
  bool BelievesAbove() const { return believes_above_; }
  const Vector& estimate() const { return e_; }
  double epsilon_T() const { return epsilon_t_; }

  long full_syncs() const { return full_syncs_; }
  long partial_resolutions() const { return partial_resolutions_; }

  /// Full synchronizations completed with one or more site reports missing
  /// (lost messages / dead sites), using a missing site's last-known vector
  /// unless it predates the site's lag quarantine. Nonzero values mean the
  /// estimate e carries staleness — surface this in deployment health metrics.
  long degraded_syncs() const { return degraded_syncs_; }

  /// Current epoch (== number of sync rounds started since Start()).
  std::int64_t epoch() const { return epoch_; }
  const FailureDetector& failure_detector() const { return fd_; }

  /// Root span of the most recent sync cascade (sticky: survives cascade
  /// completion so post-cycle auditors can attribute their verdicts to the
  /// cycle that produced the current belief). 0 before the first cascade.
  std::int64_t cycle_span() const { return last_cycle_span_; }

  /// Epoch-fencing and reliability audit counters (dst_stress invariants),
  /// snapshotted as one struct so invariant checks read a coherent view.
  struct AuditStats {
    long stale_epoch_drops = 0;
    /// Stale-epoch messages that reached an apply path — must stay zero
    /// (the fence increments the drop counter instead); checked by the
    /// "no stale-epoch message applied" invariant.
    long stale_epoch_applied = 0;
    /// Same-epoch state reports that arrived after their round completed
    /// (benign: they refresh last-known state only).
    long late_reports = 0;
    long rejoins_granted = 0;
    /// Unicast straggler re-requests issued under the per-epoch deadline.
    long sync_rerequests = 0;
    /// Drift and state reports dropped as malformed (see WellFormedReport).
    long malformed_reports = 0;
  };
  AuditStats audit() const { return audit_; }

  /// Checkpoint/recovery activity counters for this incarnation (an
  /// incarnation performs at most one restore, at birth). The driver
  /// accumulates them across incarnations into the `recovery.*` metrics.
  struct RecoveryStats {
    long restores = 0;
    long snapshots_written = 0;
    long wal_records = 0;           ///< appended by this incarnation
    long wal_records_replayed = 0;  ///< replayed during this restore
    long snapshots_discarded = 0;   ///< torn/corrupt snapshots skipped
    long torn_wal_bytes = 0;        ///< WAL tail bytes rejected on restore
    long reconcile_grants = 0;      ///< reconciliation grants issued

    RecoveryStats& operator+=(const RecoveryStats& other) {
      restores += other.restores;
      snapshots_written += other.snapshots_written;
      wal_records += other.wal_records;
      wal_records_replayed += other.wal_records_replayed;
      snapshots_discarded += other.snapshots_discarded;
      torn_wal_bytes += other.torn_wal_bytes;
      reconcile_grants += other.reconcile_grants;
      return *this;
    }
  };
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// Last update cycle this node has begun (restored by Recover — a
  /// restarted deployment driver resumes its cycle numbering from here).
  long cycle() const { return cycle_; }

 private:
  enum class Phase { kIdle, kProbing, kCollecting };

  void SendBroadcast(RuntimeMessage message);
  /// Next causal span id from the logical counter (never random — replaying
  /// a seed must reproduce identical spans). Minted unconditionally: spans
  /// are protocol-carried wire fields, so message content cannot depend on
  /// whether telemetry is attached.
  std::int64_t MintSpan() { return ++next_span_; }
  /// Applies the in-flight cascade's sampling decision to a freshly minted
  /// span: unsampled cascades get kSpanUnsampledBit ORed in, so every
  /// process that sees the span (sites echo it verbatim) skips its trace
  /// formatting while the wire format — a fixed-width i64 either way — and
  /// all counters stay untouched. At rate 1.0 this is the identity.
  std::int64_t TagSpan(std::int64_t span) const;
  /// Opens the root span of a sync cascade if none is active and traces the
  /// sync_cycle_begin event. `trigger` names what started the cascade.
  void EnsureCycleSpan(const char* trigger);
  /// Marks the in-flight cascade finished (spans only; phase_ is managed by
  /// the protocol logic).
  void CloseCycleSpan();
  /// Starts a new collection round (fresh epoch).
  void RequestFullState();
  /// Advances the epoch (sync-round counter) and traces the bump.
  void BumpEpoch();
  void FinishFullSync(bool degraded);
  void ResolvePartial(const Vector& v_hat, double epsilon);
  /// A drift or state report the fold can use: a nonempty vector of the
  /// deployment's dimension and, on a drift report, g ∈ (0, 1]. A CRC-valid
  /// frame can carry anything; a report failing this is dropped and counted
  /// (AuditStats::malformed_reports), then handled like a lost one.
  bool WellFormedReport(const RuntimeMessage& message) const;
  /// Merges a new wish into the pending resync schedule (soonest wins).
  void ScheduleResync(long cycles);
  /// Liveness bookkeeping for any inbound site message: feeds the failure
  /// detector and drives revival / rejoin of dead sites.
  void ObserveSite(int site, std::int64_t epoch);
  void MaybeGrantRejoin(int site);
  /// Transport give-up delivering `message` to `site` (reliability layer).
  void OnLinkDead(int site, const RuntimeMessage& message);
  bool AllLiveReported() const;
  /// Completes the in-flight collection with whatever arrived, folding in
  /// last-known vectors for the missing sites, bar those that predate a lag
  /// quarantine; with nothing arrived, goes idle and schedules a retry.
  void CompleteCollection();
  /// Captures the full durable state into a checkpoint struct.
  CoordinatorCheckpoint BuildCheckpoint() const;
  /// Persists a snapshot to the configured store (no-op without one).
  void WriteSnapshot();
  /// Stamps cycle/epoch/next_span onto `record` and appends it to the WAL
  /// (no-op without a store). Must run before the mutation's message is
  /// sent, so nothing on the wire is ever ahead of the log.
  void AppendWal(WalRecord record);

  int num_sites_;
  std::unique_ptr<MonitoredFunction> function_;
  RuntimeConfig config_;
  Transport* transport_;
  ReliableTransport* reliable_ = nullptr;
  Telemetry* telemetry_;
  /// Cached latency histograms (nullptr when telemetry is off, which
  /// disables the profiling scopes entirely — no clock reads).
  Histogram* ht_estimate_ns_ = nullptr;
  Histogram* full_sync_ns_ = nullptr;
  Histogram* restore_ns_ = nullptr;
  FailureDetector fd_;
  RecoveryStats recovery_stats_;

  Phase phase_ = Phase::kIdle;
  bool alarm_this_cycle_ = false;
  Vector e_;
  bool believes_above_ = false;
  double epsilon_t_ = 0.0;
  long cycle_ = 0;
  long cycles_since_sync_ = 0;
  long full_syncs_ = 0;
  long partial_resolutions_ = 0;
  long degraded_syncs_ = 0;
  /// Cycles closed over a responsive quorum under a barrier deadline.
  /// Observability state, like the audit counters — not checkpointed.
  long degraded_cycles_ = 0;
  /// Cycles until the next scheduled full resync (−1: none pending).
  long retry_full_in_ = -1;

  /// Causal-span counter (logical, coordinator-authoritative; sites never
  /// mint — they echo the span of the request they answer).
  std::int64_t next_span_ = 0;
  /// Root span of the in-flight sync cascade (0 when none active). A probe
  /// that escalates to a full sync keeps its root, so the whole
  /// local-violation → probe → full-sync chain is one tree.
  std::int64_t cycle_span_ = 0;
  /// Span of the in-flight probe/collection round (child of cycle_span_).
  std::int64_t phase_span_ = 0;
  /// Most recent root span, kept after the cascade completes.
  std::int64_t last_cycle_span_ = 0;
  /// Head-based sampling decision for the in-flight cascade, minted with
  /// its root span (TraceSampleDecision over the raw root id). True at
  /// rate 1.0 and between cascades.
  bool cascade_sampled_ = true;

  std::int64_t epoch_ = 0;
  /// Epoch at the top of the current cycle. A live site whose message
  /// carries an epoch below this was behind *before* this cycle's rounds
  /// began — genuine staleness (it may hold a stale anchor it cannot detect
  /// in a quiet period), as opposed to lagging an in-cycle epoch bump that
  /// retransmissions are already fixing.
  std::int64_t epoch_cycle_start_ = 0;
  /// Straggler re-requests issued for the in-flight collection round.
  int sync_retries_ = 0;

  /// Last vector each site ever reported (fallback for lost reports).
  std::vector<Vector> last_known_;
  /// Rate limit: at most one rejoin grant per site per cycle.
  std::vector<long> last_grant_cycle_;
  /// Sites whose pending rejoin came from a grant (as opposed to a
  /// current-epoch revival): completing it schedules a resync.
  std::vector<bool> grant_pending_;
  /// Sites that may hold a stale anchor although they look alive and
  /// epoch-current: an anchor-carrying message (kNewEstimate /
  /// kRejoinGrant) exhausted its retransmissions, or a heartbeat named an
  /// anchor older than anchor_epoch_cycle_start_. Re-grant on next contact,
  /// unless a heartbeat proves the site holds the last estimate broadcast
  /// (see OnMessage).
  std::vector<bool> anchor_undelivered_;
  /// Epoch of the last kNewEstimate broadcast, −1 before the first. Not
  /// checkpointed: a recovered node re-grants every reachable site anyway.
  /// Every probe names it (see SiteNode::OnMessage).
  std::int64_t anchor_epoch_ = -1;
  /// anchor_epoch_ at the top of the current cycle, before BeginCycle closes
  /// a collection left open: a heartbeat naming an older anchor comes from
  /// a site that missed an estimate broadcast it had a whole cycle to get.
  std::int64_t anchor_epoch_cycle_start_ = -1;
  /// Epoch of each site's last rejoin grant from this incarnation (−1:
  /// none).
  std::vector<std::int64_t> grant_epoch_;
  /// Deaths plus lagging verdicts when BeginCycle last scanned the links
  /// (−1: never).
  long link_scan_verdicts_ = -1;

  AuditStats audit_;

  // Partial-sync probe state: first-trial drift reports buffered per site
  // (first report wins) and folded in site-id order at quiescence, so the
  // HT estimate is independent of network arrival order — the socket
  // runtime, where interleaving is scheduler-dependent, produces the same
  // floating-point result as the deterministic simulation. probe_sites_
  // lists the sites whose report was accepted, so neither the fold nor the
  // next probe's reset visits the other N − |K1| sites.
  std::vector<Vector> probe_drift_;
  std::vector<double> probe_g_;
  std::vector<int> probe_sites_;

  // Full-sync collection state; the reports themselves land in last_known_.
  std::vector<bool> received_;
  int received_count_ = 0;
};

}  // namespace sgm

#endif  // SGM_RUNTIME_COORDINATOR_NODE_H_

#ifndef SGM_RUNTIME_SITE_NODE_H_
#define SGM_RUNTIME_SITE_NODE_H_

#include <cstdint>
#include <memory>

#include "core/rng.h"
#include "estimators/sampling.h"
#include "functions/monitored_function.h"
#include "runtime/failure_detector.h"
#include "runtime/message.h"
#include "runtime/reliable_transport.h"
#include "runtime/socket_retry.h"
#include "runtime/transport.h"

namespace sgm {

struct Telemetry;
class Histogram;
class CheckpointStore;

/// Configuration shared by all nodes of one monitoring deployment.
struct RuntimeConfig {
  double threshold = 0.0;
  double delta = 0.1;
  /// Sampling trials per cycle (M of Lemma 2); ≥ 1 here (no auto mode —
  /// deployments pick M from estimators/sampling.h's NumTrials()).
  int num_trials = 1;
  /// Per-cycle drift-step bound (feeds the U policy, Example 3's pattern).
  double max_step_norm = 1.0;
  /// A-priori ‖Δv_i‖ cap (√2·window for sliding windows; +inf if unknown).
  double drift_norm_cap = 1e18;
  /// β of the U ≤ β·ε_T ceiling (see estimators/sgm_rules.h's DriftBoundU).
  double u_threshold_factor = 6.0;
  std::uint64_t seed = 99;

  // ── Reliability layer ──────────────────────────────────────────────────

  /// Failure-detector thresholds (suspicion, death, flap quarantine).
  FailureDetectorConfig failure_detector;
  /// Ack/retransmit layer tuning (retry budget, dedup window, jitter seed).
  /// Only RuntimeDriver reads it: the socket tier runs no such layer over TCP.
  ReliableTransportConfig reliability;
  /// Socket-runtime connection policy: bounded retry with seeded-jitter
  /// exponential backoff, shared by a site's first connect and every
  /// reconnect after a peer loss (see SiteClient). Irrelevant to the
  /// simulated transport.
  SocketRetryConfig socket_retry;

  // ── Crash consistency ──────────────────────────────────────────────────

  /// Optional checkpoint store (nullable, not owned): when set, the
  /// coordinator snapshots its full state every checkpoint_interval_cycles
  /// and write-ahead-logs every durable mutation in between, enabling
  /// CoordinatorNode::Recover() after a coordinator crash. Null disables
  /// checkpointing entirely (no serialization cost on any path).
  CheckpointStore* checkpoint_store = nullptr;
  /// Cycles between full snapshots; bounds WAL replay length on recovery.
  int checkpoint_interval_cycles = 25;

  // ── Observability ──────────────────────────────────────────────────────

  /// Optional telemetry context (nullable, not owned): metric registry plus
  /// structured trace, shared by every node of the deployment. Null keeps
  /// the hot paths free of any instrumentation cost, and telemetry never
  /// feeds back into protocol decisions either way.
  Telemetry* telemetry = nullptr;
  /// Head-based trace sampling rate in [0, 1]: the coordinator keeps each
  /// sync cascade's trace with this probability (seeded by `seed`, so the
  /// decisions replay), tagging unsampled cascades' span ids with
  /// kSpanUnsampledBit; span-less noise events sample per (actor, cycle) at
  /// the same rate. 1.0 records everything, byte-identical to the
  /// pre-sampling traces. Counters always count everything; the audit,
  /// alert and recovery planes are never sampled out.
  double trace_sample_rate = 1.0;
};

/// The bottom-tier participant of the SGM runtime: owns one local
/// measurements vector, performs its own sampling coin-flips and ball
/// tests, and speaks the RuntimeMessage protocol.
///
/// Unlike the simulator protocols (which hold all N vectors in one object
/// for experimentation), a SiteNode sees *only its own data* plus the
/// coordinator's broadcasts — this is the embeddable deployment shape.
///
/// Epoch fencing: the site tracks the highest coordinator epoch it has
/// seen. Messages from older epochs are dropped (counted, never applied).
/// A forward jump of more than one epoch means the site missed a whole
/// sync round — it un-anchors (suppresses monitoring, which would test
/// balls against a stale estimate), keeps answering full-state requests
/// (its raw v_i is always valid), and requests a rejoin; a kNewEstimate or
/// kRejoinGrant re-anchors it. A probe naming an estimate newer than the
/// site's anchor has the same effect: the site missed that broadcast even
/// if no epoch gap shows it.
///
/// Usage per update cycle:
///   site.Observe(new_local_vector);   // after the local window slid
///   ... transport delivers; site.OnMessage(...) for each inbound ...
class SiteNode {
 public:
  /// `id` ∈ [0, N); the function is cloned (reference-anchored functions
  /// re-anchor on every kNewEstimate).
  SiteNode(int id, int num_sites, const MonitoredFunction& function,
           const RuntimeConfig& config, Transport* transport);

  /// Feeds this cycle's local measurements vector and runs the monitoring
  /// phase (sampling + local ball test); may emit kLocalViolation, or a
  /// kHeartbeat when this is the site's heartbeat slot and it sent nothing
  /// else: site i beats on its c-th call when (c + i) mod H = 0, with
  /// H = HeartbeatIntervalCycles(N).
  void Observe(const Vector& local_vector);

  /// Handles a coordinator message (probe/state requests, new estimates,
  /// resolutions, rejoin grants); may emit reports.
  void OnMessage(const RuntimeMessage& message);

  /// Notifies the node that its transport connection was torn down and
  /// re-established (socket runtime reconnect). While disconnected the
  /// coordinator may have advanced the epoch — or even restarted — without
  /// the site being able to observe the gap, so the node proactively drives
  /// the rejoin handshake: the coordinator checks the echoed epoch and
  /// re-anchors the site (estimate + ε_T + scheduled Δv resync) through the
  /// ordinary kRejoinGrant path. A no-op before first coordinator contact
  /// (the fresh kSiteHello covers that case).
  void OnTransportReconnect();

  int id() const { return id_; }
  /// True when this site was included in the first trial this cycle.
  bool in_first_trial() const { return in_first_trial_; }
  long cycles_since_sync() const { return cycles_since_sync_; }

  /// Highest coordinator epoch this site has observed.
  std::int64_t epoch() const { return epoch_; }
  /// True when the site holds a current anchor (estimate + baseline) and is
  /// participating in monitoring; false while it awaits a rejoin/resync.
  bool anchored() const { return anchored_ && initialized_; }
  const Vector& estimate() const { return e_; }

  /// Epoch-fencing audit counters (dst_stress invariants), snapshotted as
  /// one struct so invariant checks read a coherent view.
  struct AuditStats {
    long stale_epoch_drops = 0;
    /// Number of stale-epoch messages that reached an apply path — must
    /// stay zero; the fence increments the drop counter instead. A nonzero
    /// value is a protocol bug surfaced by the "no stale-epoch message
    /// applied" invariant.
    long stale_epoch_applied = 0;
    long heartbeats_sent = 0;
    long rejoin_requests_sent = 0;
  };
  AuditStats audit() const { return audit_; }
  /// Adds every later increment of this site's audit counters to `*totals`
  /// as well (not owned; null stops it), so a deployment keeps its site.*
  /// totals current instead of summing N sites per publish.
  void ShareAuditTotals(AuditStats* totals) { audit_totals_ = totals; }

 private:
  Vector Drift() const;
  /// Increments one audit counter, here and in the shared totals.
  void Count(long AuditStats::*counter);
  void SendToCoordinator(RuntimeMessage message);
  void SendHeartbeatIfDue();
  void RequestRejoin();
  /// Stops monitoring against an anchor the site knows is stale and asks
  /// for a fresh one.
  void Unanchor();
  /// Applies a full anchor (estimate + ε_T + epoch): kNewEstimate and
  /// kRejoinGrant share this path; `source` labels the anchor_applied
  /// trace event with which one it was.
  void ApplyAnchor(const RuntimeMessage& message, const char* source);

  int id_;
  int num_sites_;
  std::unique_ptr<MonitoredFunction> function_;
  /// The RuntimeConfig fields Observe reads; the rest are constructor-only.
  double threshold_;
  double max_step_norm_;
  double drift_norm_cap_;
  double u_threshold_factor_;
  int num_trials_;
  Transport* transport_;
  Telemetry* telemetry_;
  /// Cached `site.ball_test_ns` histogram; nullptr when telemetry is off,
  /// which disables the profiling scope entirely (no clock reads).
  Histogram* ball_test_ns_ = nullptr;
  Rng rng_;
  SamplingScale sampling_;

  Vector local_;         ///< v_i(t)
  Vector synced_local_;  ///< v_i(t_s)
  /// Δv_i of the last monitored Observe; its buffer is reused every cycle.
  Vector drift_;
  Vector e_;             ///< coordinator's last broadcast estimate
  double epsilon_t_ = 0.0;
  double inclusion_probability_ = 0.0;
  bool in_first_trial_ = false;
  long cycles_since_sync_ = 0;
  long mute_remaining_ = 0;
  bool initialized_ = false;

  std::int64_t epoch_ = 0;
  /// Epoch of the anchor (kNewEstimate or kRejoinGrant) last applied; each
  /// heartbeat names it so the coordinator can tell whether the site holds
  /// its last estimate broadcast, and a probe naming a newer one un-anchors
  /// the site.
  std::int64_t anchor_epoch_ = 0;
  bool anchored_ = false;
  bool rejoin_requested_ = false;  ///< one outstanding request at a time
  /// Heartbeat cadence H and the Observe calls so far (the slot clock).
  int heartbeat_interval_;
  long observes_ = 0;

  AuditStats audit_;
  AuditStats* audit_totals_ = nullptr;
};

}  // namespace sgm

#endif  // SGM_RUNTIME_SITE_NODE_H_

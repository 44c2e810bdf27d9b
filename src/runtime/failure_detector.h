#ifndef SGM_RUNTIME_FAILURE_DETECTOR_H_
#define SGM_RUNTIME_FAILURE_DETECTOR_H_

#include <cstdint>
#include <vector>

namespace sgm {

struct Telemetry;

/// Cycles between a quiet site's standalone heartbeats in a deployment of
/// `num_sites` sites: H = ⌈√N⌉, the smallest h with h² ≥ N. Site i beats
/// when (c + i) mod H = 0 on its c-th observed cycle, so about N/H = √N
/// heartbeats cross the network per cycle, the paper's O(√N) budget. The
/// site's cadence and the failure detector's miss unit both come from here.
int HeartbeatIntervalCycles(int num_sites);

/// Tuning knobs of the coordinator-side failure detector. Silence is
/// counted in missed beats of HeartbeatIntervalCycles(N) cycles each.
struct FailureDetectorConfig {
  /// Missed beats before a site is suspected (silent for more than
  /// suspect_after_misses·H cycles).
  int suspect_after_misses = 3;
  /// Missed beats before a suspected site is declared dead (removed from
  /// the sample pool and the ack-expectation set).
  int dead_after_misses = 6;
  /// A site declared dead this many times within flap_window_cycles is
  /// quarantined: its rejoin is deferred until the quarantine expires, so a
  /// flapping link cannot thrash the estimate with partial resyncs.
  int flap_death_threshold = 3;
  long flap_window_cycles = 60;
  long quarantine_cycles = 30;
  /// Consecutive barrier-deadline misses before a slow-but-alive site is
  /// declared kLagging and quarantined out of the barrier population. Only
  /// meaningful when the coordinator runs with a barrier deadline; the
  /// counter resets whenever the site makes a deadline.
  int lagging_after_deadline_misses = 2;
  /// Deterministic per-site jitter on the suspect/dead/lagging thresholds
  /// and the quarantine duration: each site scales them by independent
  /// factors drawn once from Rng(DeriveSeed(jitter_seed, site)), uniform in
  /// [1 − threshold_jitter, 1 + threshold_jitter]. With the fixed constants
  /// every site in a partitioned fleet crossed suspect → dead (and left
  /// quarantine) in the same cycle, synchronizing death storms and rejoin
  /// stampedes; jitter desynchronizes them without giving up seeded replay.
  /// 0 disables (the exact configured values apply to every site).
  double threshold_jitter = 0.0;
  std::uint64_t jitter_seed = 11;
};

/// Heartbeat-miss failure detector for the coordinator: one state machine
/// per site. A miss is a beat of H = HeartbeatIntervalCycles(N) silent
/// cycles; a site silent for 2H cycles or more leaves a heartbeat_miss
/// breadcrumb on its way to suspicion.
///
///   kAlive ──misses > suspect──▶ kSuspect ──misses > dead──▶ kDead
///     ▲                             │ heard from                │ heard
///     └──────────(heard from)───────┘                           ▼
///   kAlive ◀──rejoin handshake (grant + fresh state)──── kRejoining
///
/// Liveness is piggybacked on ordinary protocol traffic — any message from
/// a site (drift report, state report, violation, heartbeat) counts. A site
/// that crossed into kDead must complete the rejoin handshake before it is
/// alive again; sites that die repeatedly within the flap window are
/// quarantined (rejoin deferred) until the quarantine expires.
///
/// A third verdict covers slow-but-alive sites: consecutive barrier-deadline
/// misses (reported by the coordinator's deadline-bounded barrier) move a
/// site kAlive/kSuspect → kLagging. Lagging is like dead for membership
/// purposes — out of the sample pool and the ack-expectation set — but the
/// site's TCP session stays up and its eventual catch-up traffic drives the
/// same rejoin handshake a revived dead site would (kLagging → kRejoining →
/// kAlive), re-anchoring it with a bounded, accounted staleness window.
class FailureDetector {
 public:
  enum class State { kAlive, kSuspect, kDead, kRejoining, kLagging };

  FailureDetector(int num_sites, const FailureDetectorConfig& config);

  /// Optional observability sink (nullable, not owned): state transitions
  /// are traced as `failure` category events when set.
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Advances the cycle clock and escalates miss counts. Call once per
  /// update cycle, before processing the cycle's messages. Only sites whose
  /// silence has reached a breadcrumb or a threshold are visited.
  void BeginCycle(long cycle);

  /// A message from `site` arrived (any kind — liveness is transport-level).
  /// kDead/kRejoining sites stay in their state: only the rejoin handshake
  /// revives them.
  void RecordAlive(int site);

  /// Transport-level evidence of unreachability (retransmissions exhausted).
  /// Escalates straight to kDead, which releases the site's pending acks
  /// and removes it from the sample pool until it rejoins.
  void ReportUnreachable(int site);

  /// The site missed a barrier deadline (reported once per degraded cycle
  /// by the coordinator). Consecutive misses beyond the (jittered) lagging
  /// threshold move kAlive/kSuspect → kLagging. Returns true exactly when
  /// this call performed that transition, so the caller can release the
  /// site's pending acks and start the staleness clock.
  bool RecordMissedDeadline(int site);
  /// The site acked within the deadline: resets its consecutive-miss count.
  void RecordDeadlineMet(int site);

  /// The rejoin handshake started (grant issued): kDead/kLagging →
  /// kRejoining.
  void BeginRejoin(int site);
  /// The rejoin handshake completed (fresh state received): → kAlive.
  void CompleteRejoin(int site);

  State state(int site) const { return sites_[site].state; }
  bool IsLive(int site) const { return IsLiveState(sites_[site].state); }
  bool IsQuarantined(int site) const;

  /// Sites currently in the sample pool (kAlive or kSuspect): the population
  /// the Horvitz–Thompson estimator reweights over. The three totals below
  /// are kept current on every state change, so reading them is O(1).
  int live_count() const { return live_count_; }

  long deaths(int site) const { return sites_[site].deaths; }
  long total_deaths() const { return total_deaths_; }

  /// Sites currently under the kLagging verdict.
  int lagging_count() const { return lagging_count_; }
  /// Lagging verdicts issued over the detector's lifetime (quarantines).
  long total_lagging_verdicts() const { return total_lagging_verdicts_; }
  /// Cycle the site's current lag quarantine started, or -1 when not
  /// lagging. The staleness window of a recovered laggard is
  /// rejoin_cycle − lagging_since.
  long lagging_since(int site) const { return sites_[site].lagging_since; }
  /// Staleness (cycles between the lagging verdict and the completed
  /// rejoin) accumulated across every recovered laggard.
  long staleness_cycles_total() const { return staleness_cycles_total_; }
  long staleness_cycles_max() const { return staleness_cycles_max_; }

  /// H: the cycles in one missed beat.
  int heartbeat_interval() const { return heartbeat_interval_; }
  /// Effective (post-jitter) thresholds for one site, exposed for tests;
  /// suspect_after and dead_after count missed beats.
  int suspect_after(int site) const { return sites_[site].suspect_after; }
  int dead_after(int site) const { return sites_[site].dead_after; }
  long quarantine_cycles(int site) const { return sites_[site].quarantine; }
  int lagging_after(int site) const { return sites_[site].lagging_after; }

  /// Durable per-site detector state, as captured into (and restored from)
  /// a coordinator checkpoint. Jittered thresholds are NOT part of it —
  /// they are a pure function of the config and recompute identically.
  /// Deadline-miss counters are transient barrier state and restart at
  /// zero; a restored kLagging site's staleness clock restarts at the
  /// recovery cycle (the pre-crash window is unknowable, so it is
  /// under-counted rather than guessed).
  struct SiteSnapshot {
    State state = State::kAlive;
    long last_heard_cycle = 0;
    long deaths = 0;
    std::vector<long> death_cycles;
    long quarantine_until = -1;
  };
  std::vector<SiteSnapshot> Snapshot() const;
  /// Restores per-site state and resets the cycle clock to the checkpoint's
  /// cycle, so downtime is not charged to the sites as heartbeat misses.
  void Restore(const std::vector<SiteSnapshot>& sites, long cycle);

 private:
  struct SiteState {
    State state = State::kAlive;
    long last_heard_cycle = 0;
    long deaths = 0;
    /// Cycles of the site's recent death transitions (flap detection).
    std::vector<long> death_cycles;
    long quarantine_until = -1;
    /// Consecutive barrier-deadline misses; reset by RecordDeadlineMet.
    int deadline_misses = 0;
    /// Cycle the current lagging verdict was issued, -1 when not lagging.
    long lagging_since = -1;
    /// Per-site effective thresholds (config values, jittered when enabled).
    int suspect_after = 0;
    int dead_after = 0;
    long quarantine = 0;
    int lagging_after = 0;
  };

  static bool IsLiveState(State state) {
    return state == State::kAlive || state == State::kSuspect;
  }
  /// Every state change goes through here, keeping the totals current.
  void SetState(SiteState* site, State next);
  /// Recomputes the totals from the per-site states (after Restore).
  void Recount();
  void Escalate(int site);
  void RecordDeath(int site);
  /// Recomputes `site`'s entry of due_ from its state and last_heard_cycle.
  void Schedule(int site);

  FailureDetectorConfig config_;
  int heartbeat_interval_;
  std::vector<SiteState> sites_;
  /// Per site, the first cycle at which Escalate can act: last_heard_cycle
  /// plus the silence of the heartbeat_miss breadcrumb or of suspicion,
  /// whichever is shorter; kNever for a site outside the sample pool,
  /// which Escalate leaves alone. BeginCycle scans this flat array instead
  /// of every SiteState, and only once next_due_ has come.
  std::vector<long> due_;
  /// A lower bound on every entry of due_: exact after a scan, lowered by
  /// Schedule.
  long next_due_ = 0;
  Telemetry* telemetry_ = nullptr;
  long cycle_ = 0;
  int live_count_ = 0;
  int lagging_count_ = 0;
  long total_deaths_ = 0;
  long total_lagging_verdicts_ = 0;
  long staleness_cycles_total_ = 0;
  long staleness_cycles_max_ = 0;
};

const char* ToString(FailureDetector::State state);

}  // namespace sgm

#endif  // SGM_RUNTIME_FAILURE_DETECTOR_H_

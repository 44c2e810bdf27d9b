#ifndef SGM_RUNTIME_COORDINATOR_SERVER_H_
#define SGM_RUNTIME_COORDINATOR_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metric_registry.h"
#include "runtime/coordinator_node.h"
#include "runtime/node_metrics.h"
#include "runtime/reliable_transport.h"
#include "runtime/round_clock.h"
#include "runtime/site_node.h"  // RuntimeConfig
#include "runtime/socket_transport.h"

namespace sgm {

struct CoordinatorServerConfig {
  /// TCP port to listen on (loopback only); 0 picks an ephemeral port,
  /// readable from port() after Listen().
  int port = 0;
  int num_sites = 0;
  /// Node configuration, shared verbatim with every site process (the
  /// protocol requires both tiers to agree on thresholds and bounds). The
  /// server injects its own MonotonicRoundClock into
  /// runtime.reliability.round_clock.
  RuntimeConfig runtime;
  /// Microseconds per retransmission round of the reliability layer. Sized
  /// so the full give-up horizon (≈ 15 rounds of backoff) comfortably
  /// exceeds any scheduling hiccup of a loopback peer — spurious dead-link
  /// verdicts against live-but-preempted sites would inject failures the
  /// deployment does not have.
  long round_micros = 20000;
  /// WaitForSites() gives up after this long without all hellos.
  long hello_timeout_ms = 30000;
  /// RunCycle() fails if its barrier rounds do not settle within this.
  long barrier_timeout_ms = 30000;
  /// Soft per-cycle barrier deadline in milliseconds; 0 disables (default —
  /// the barrier then behaves exactly as before this knob existed). When
  /// set, a barrier whose acks have not settled by the deadline stops
  /// waiting: every missed site is reported to the failure detector's
  /// lagging escalation (consecutive misses quarantine it as kLagging), the
  /// cycle is recorded degraded, and the cycle completes over the
  /// responsive quorum. barrier_timeout_ms stays the hard-fail backstop.
  long barrier_deadline_ms = 0;
  /// Bounded per-peer outbound queue, in frames, drained by a dedicated
  /// writer thread (see SocketTransport::EnableAsyncWriter): a stalled
  /// site's full TCP buffer backs up only its own queue, never the accept,
  /// reader or cycle threads. 0 keeps the synchronous write path.
  std::size_t send_queue_frames = 0;
};

/// The coordinator tier as a real threaded network service: an accept
/// thread plus one reader thread per site connection, all dispatching into
/// a single CoordinatorNode guarded by one mutex.
///
/// ── Lockstep cycles over TCP ───────────────────────────────────────────
/// RunCycle() reproduces RuntimeDriver::Initialize/Tick semantics over
/// sockets. It broadcasts kCycleBegin (sites observe their next vector),
/// runs the protocol node's cycle hook, then drives flush-barrier rounds
/// until global quiescence: broadcast kBarrier(token), wait for every
/// site's kBarrierAck, and check whether the coordinator put any new data
/// frame on the wire since the barrier was issued. Because each stream is
/// FIFO, a site's barrier ack is ordered after its responses to everything
/// the coordinator sent before the barrier — so a completed barrier with a
/// stable data-frame counter means no protocol message is in flight in
/// either direction. That is exactly the sim driver's quiescence point, at
/// which OnQuiescent() fires; if it emits traffic, another barrier round
/// settles it. Cascades are finite (every round's traffic is bounded), so
/// the loop terminates.
///
/// ── Threading model ────────────────────────────────────────────────────
/// One mutex (mu_) guards the CoordinatorNode, the ReliableTransport, the
/// barrier bookkeeping and the registration table; reader threads take it
/// per decoded frame, the cycle thread takes it per barrier step. The
/// SocketTransport has its own internal mutex (lock order: mu_ before the
/// transport's — reader threads and the cycle thread both follow it by
/// construction, since every Send happens under mu_). Telemetry is
/// internally thread-safe.
///
/// Session-control frames (hello, barrier acks) are consumed here and
/// never dispatched into the protocol node; everything else goes through
/// the receive side of the ReliableTransport exactly as the sim driver's
/// Deliver() does.
///
/// ── Membership churn ───────────────────────────────────────────────────
/// Connections may come and go mid-run. A reader hitting EOF/error
/// deregisters its site (link marked down, disconnect counted); a fresh
/// kSiteHello for an already-seen site is a *re-hello* — the stale
/// connection (if any) is displaced, the link marked up again, and the
/// site unicast the current kCycleBegin so it catches up its observation.
/// The barrier loop targets the *currently connected* population and
/// restarts whenever membership shifts under it (topology_version_), so
/// quiescence is always judged against a stable, fully-acked membership.
///
/// ── Restart-from-checkpoint ────────────────────────────────────────────
/// A crashed coordinator process restarts as: construct (same config,
/// checkpoint store attached) → Listen() → Recover() → WaitForSites() →
/// RunCycle() loop. Recover() restores the protocol node from the
/// snapshot+WAL, fences the epoch one past anything the dead incarnation
/// committed, queues reconciliation grants (delivered once sites
/// reconnect), and resumes the cycle counter so the remaining schedule
/// continues where the WAL left off.
class CoordinatorServer {
 public:
  CoordinatorServer(const MonitoredFunction& function,
                    const CoordinatorServerConfig& config);
  ~CoordinatorServer();

  CoordinatorServer(const CoordinatorServer&) = delete;
  CoordinatorServer& operator=(const CoordinatorServer&) = delete;

  /// Binds and listens on loopback. Starts no threads — safe to call
  /// before fork()ing site processes. Returns false on bind failure.
  bool Listen();
  int port() const { return bound_port_; }

  /// Restores the protocol node from config.runtime.checkpoint_store (see
  /// CoordinatorNode::Recover): state restored, epoch fenced one past the
  /// crashed incarnation, reconciliation grants queued for redelivery.
  /// Must run after Listen() and before WaitForSites() — no site frame may
  /// reach the node ahead of the restore. Returns false when the store
  /// holds no decodable snapshot.
  bool Recover();

  /// Starts the accept thread and blocks until all num_sites hellos have
  /// registered (or hello_timeout_ms elapsed — returns false).
  bool WaitForSites();

  /// Runs one lockstep update cycle to global quiescence. The first call
  /// is the initialization sync (sites observe their first vectors, the
  /// coordinator runs Start()); later calls are ordinary Tick cycles.
  /// Returns false on barrier timeout (a site died or wedged).
  bool RunCycle();

  /// Broadcasts kShutdown, stops the accept loop, closes every session and
  /// joins all threads. Idempotent; the destructor calls it.
  void Shutdown();

  /// Crash-stop for restart tests: Shutdown() minus the kShutdown
  /// broadcast — sites see a raw connection loss, exactly as if the
  /// process had been killed, and run their reconnect path against the
  /// next incarnation. Idempotent with Shutdown().
  void Halt();

  // Mutex-guarded snapshots of the protocol state (safe from any thread).
  bool BelievesAbove() const;
  Vector Estimate() const;
  std::int64_t Epoch() const;
  long FullSyncs() const;
  long PartialResolutions() const;
  long DegradedSyncs() const;
  long CyclesRun() const;

  /// Deployment-wide paper-comparable figures. Every protocol message
  /// either originates or terminates at the coordinator (star topology),
  /// so local sends plus inbound site data frames cover the whole
  /// deployment — the same totals the sim's single bus counts.
  long PaperMessages() const;
  long PaperSiteMessages() const;
  double PaperBytes() const;

  // Membership and reliability snapshots (mutex-guarded).
  int ConnectedCount() const;
  long SiteDisconnects() const;
  long SiteRehellos() const;
  bool HasUnacked() const;

  /// Everything the /healthz ops endpoint reports, snapshotted atomically
  /// under the server mutex: protocol position (epoch, cycle), membership,
  /// per-site failure-detector verdicts, and checkpoint generation.
  struct Health {
    std::int64_t epoch = 0;
    long cycle = 0;
    int num_sites = 0;
    int connected_sites = 0;
    long site_disconnects = 0;
    long site_rehellos = 0;
    bool has_unacked = false;
    bool believes_above = false;
    long full_syncs = 0;
    long partial_resolutions = 0;
    long degraded_syncs = 0;
    /// Snapshots written by this incarnation — the checkpoint generation
    /// a restart would resume from (0 = no checkpoint store attached).
    long checkpoint_snapshots = 0;
    long checkpoint_restores = 0;  ///< 1 iff this incarnation recovered
    /// Cycles whose barrier closed over a responsive quorum only, and the
    /// lag-quarantine picture behind them (see FailureDetector::kLagging).
    long degraded_cycles = 0;
    int lagging_sites = 0;
    long lag_quarantines = 0;
    /// Failure-detector verdict per site: "alive" | "suspect" | "dead" |
    /// "rejoining" | "lagging" (+ "+quarantined" while a flapper is
    /// deferred).
    std::vector<std::string> site_states;
    std::vector<bool> site_connected;
  };
  Health GetHealth() const;
  /// GetHealth() rendered as the /healthz JSON document.
  std::string HealthJson() const;

  const SocketTransport& transport() const { return transport_; }

  /// Writes a snapshot outside the periodic schedule — the graceful
  /// shutdown path's final checkpoint. No-op without a store.
  void FlushCheckpoint();

  /// Mirrors coordinator/transport/failure counters into the attached
  /// telemetry registry through the publisher RuntimeDriver shares (same
  /// metric names) and samples the time series. Called automatically at
  /// the end of every RunCycle.
  void PublishMetrics();

 private:
  void AcceptLoop();
  void ReaderLoop(int fd);
  /// Books the end of `site`'s current session, exactly once per session
  /// whichever path sees it end first (its reader's EOF, or a re-hello
  /// displacing it): drops the peer mapping, counts the disconnect, bumps
  /// the topology version and traces `site_disconnect`. Caller holds mu_.
  void EndSessionLocked(int site);
  /// Dispatches one decoded frame; caller holds mu_. Returns false when the
  /// connection must be dropped (bad or duplicate hello).
  bool HandleFrame(int fd, const RuntimeMessage& message);
  /// The barrier loop described above; returns false on timeout.
  bool AwaitQuiescence();
  void BroadcastControl(RuntimeMessage::Type type, double scalar);
  int ConnectedCountLocked() const;
  /// True while some barrier-population site has not acked the current
  /// token. Without a deadline the population is every connected site;
  /// under one, connected sites quarantined as kLagging are excluded
  /// (their late acks are welcome but never waited for). Caller holds mu_.
  bool BarrierAckPendingLocked() const;
  /// Soft-deadline expiry: acked population sites reset their miss count,
  /// silent ones accrue a miss (consecutive misses quarantine), and the
  /// cycle is recorded degraded. Returns the missed-site count. Caller
  /// holds mu_.
  int HandleBarrierDeadlineLocked();
  /// Shared teardown of Shutdown()/Halt(): stop accept, sever sessions,
  /// join every thread, close every fd.
  void StopThreads();
  /// The socket tier's own metric rows (its transport accounting and
  /// `socket.*`), read under mu_.
  static MetricRows<CoordinatorServer> SocketRows();

  CoordinatorServerConfig config_;
  MonotonicRoundClock clock_;
  /// Construction instant; /healthz reports uptime relative to this.
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
  SocketTransport transport_;
  std::unique_ptr<ReliableTransport> reliable_;
  std::unique_ptr<CoordinatorNode> coordinator_;

  int listen_fd_ = -1;
  int bound_port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  /// Reader threads and their fds; appended only by the accept thread,
  /// iterated only after it is joined.
  std::vector<std::thread> readers_;
  std::vector<int> session_fds_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Sites that have *ever* registered (first hellos count toward
  /// WaitForSites; later hellos from the same site are re-hellos).
  std::vector<bool> registered_;
  /// Sites with a live connection right now.
  std::vector<bool> connected_;
  /// Current session fd per site (-1 while disconnected) and its inverse;
  /// a reader whose fd is no longer mapped was displaced by a re-hello and
  /// must not deregister the site on exit.
  std::vector<int> site_fds_;
  std::map<int, int> fd_site_;
  /// Bumped on every connect/disconnect/displacement; the barrier loop
  /// restarts when it moves mid-wait.
  long topology_version_ = 0;
  long site_disconnects_ = 0;
  long site_rehellos_ = 0;
  int hellos_ = 0;
  long barrier_token_ = 0;
  int barrier_acks_ = 0;
  /// Which sites acked the current barrier token (the deadline path judges
  /// per-site responsiveness; the count alone cannot).
  std::vector<bool> barrier_acked_;
  /// Wall time each AwaitQuiescence spent, in ms (nullptr without
  /// telemetry). Metrics only — wall time never feeds the trace.
  Histogram* barrier_wait_ms_ = nullptr;
  long cycle_ = -1;  ///< last completed cycle; first RunCycle runs cycle 0
  /// Garbage on the wire: frames the decoder rejected (CRC, bounds) plus
  /// decoded frames naming a sender outside the deployment.
  long corrupt_frames_ = 0;
  /// Inbound site-originated protocol data (paper accounting family).
  long site_messages_received_ = 0;
  double site_bytes_received_ = 0.0;
  bool shut_down_ = false;
  /// PublishMetrics' rows: the socket tier's, then the shared publisher's.
  MetricRows<CoordinatorServer> socket_rows_ = SocketRows();
  NodeMetricsPublisher node_metrics_;
};

}  // namespace sgm

#endif  // SGM_RUNTIME_COORDINATOR_SERVER_H_

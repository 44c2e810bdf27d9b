#ifndef SGM_RUNTIME_SITE_CLIENT_H_
#define SGM_RUNTIME_SITE_CLIENT_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metric_registry.h"
#include "runtime/chaos.h"
#include "runtime/node_metrics.h"
#include "runtime/site_node.h"
#include "runtime/socket_transport.h"

namespace sgm {

struct SiteClientConfig {
  int site_id = 0;
  int num_sites = 0;
  /// Coordinator's loopback port.
  int port = 0;
  /// Node configuration — must match the coordinator's RuntimeConfig
  /// field-for-field (thresholds, bounds, seeds), or the two tiers monitor
  /// different queries. The client draws its connection retry policy from
  /// runtime.socket_retry (jitter salted by site_id).
  RuntimeConfig runtime;
  /// Sessions the client may re-establish after losing the coordinator
  /// connection mid-run (each reconnect burns the full socket_retry
  /// budget). 0 disables reconnection — any peer loss ends the run.
  int max_reconnects = 8;
  /// Optional seeded network-fault injection on the send path (tests and
  /// chaos harnesses only; enabled() is false by default).
  ChaosInjectionConfig chaos;
};

/// Why the event loop returned — the structured exit story of a site
/// process (docs/RUNTIME.md, failure-handling runbook). Every value except
/// kShutdown is an abnormal end and maps to a distinct nonzero exit code in
/// `sgm_monitor --site`.
enum class SiteExitReason {
  kShutdown = 0,     ///< coordinator said kShutdown: clean end of run
  kConnectGiveUp,    ///< connection attempts exhausted (first or re-connect)
  kCoordinatorEof,   ///< peer closed without kShutdown, reconnects exhausted
  kRecvError,        ///< terminal recv() error, reconnects exhausted
  kStreamPoisoned,   ///< oversized-prefix poison, reconnects exhausted
  kSendFailed,       ///< write failure dropped the peer, reconnects exhausted
  kPollError,        ///< terminal poll() error (not recoverable by reconnect)
};

/// Human-readable tag for logs and trace events ("shutdown", "connect-give-up", ...).
const char* SiteExitReasonName(SiteExitReason reason);

/// One site process: a SiteNode over a SocketTransport connection to the
/// coordinator, driven by a single-threaded poll loop (no locking — the
/// site tier is naturally sequential: observe, respond, flush). The loop
/// flushes before every poll(), so what one inbound batch draws (an alarm
/// or heartbeat, the replies, the barrier ack) leaves in one write.
///
/// The loop obeys the coordinator's session control plane:
///  * kCycleBegin → Observe(next_vector(cycle)) — the data is generated
///    locally (each process reconstructs its deterministic stream), only
///    protocol messages cross the wire, as in the real deployment shape.
///  * kBarrier → echo kBarrierAck. The node's responses to everything that
///    preceded the barrier were queued during dispatch ahead of the ack in
///    the same FIFO backlog (or already written), so the stream orders them
///    before the ack — the flush guarantee the coordinator's quiescence
///    detection builds on.
///  * kShutdown → clean exit.
/// Every other frame from the coordinator goes straight to
/// SiteNode::OnMessage: the stream delivers it once and in order, and the
/// node sends its replies through the SocketTransport (or the chaos layer
/// over it) with no sequence numbers or acks (DESIGN.md §11).
///
/// ── Reconnect-with-rejoin ──────────────────────────────────────────────
/// A lost connection (EOF, recv error, write failure, poisoned stream)
/// does not end the run: the client discards the partial frame state,
/// redials under the seeded-backoff policy, re-registers with a fresh
/// kSiteHello and lets SiteNode::OnTransportReconnect drive the rejoin
/// handshake, so the coordinator re-anchors the site (e, ε_T) and resyncs
/// its drift. Frames lost with the old connection are not resent: the
/// rejoin and the epoch fence resynchronize what they carried. Bounded by
/// max_reconnects and the per-attempt socket_retry budget — exhaustion ends
/// the run with the underlying failure's reason.
class SiteClient {
 public:
  SiteClient(const MonitoredFunction& function,
             const SiteClientConfig& config);
  ~SiteClient();

  SiteClient(const SiteClient&) = delete;
  SiteClient& operator=(const SiteClient&) = delete;

  /// Connects to the coordinator under the socket_retry policy and
  /// registers with kSiteHello. Returns false when the budget ran out
  /// before the coordinator became reachable.
  bool Connect();

  /// Runs the event loop until the coordinator says kShutdown (returns
  /// true) or the connection is lost beyond recovery (returns false; see
  /// exit_reason() for which failure ended it). `next_vector(cycle)`
  /// supplies the local measurements vector observed at each kCycleBegin.
  bool Run(const std::function<Vector(long cycle)>& next_vector);

  /// Why the last Run() returned.
  SiteExitReason exit_reason() const { return exit_reason_; }
  /// Sessions re-established after a mid-run peer loss.
  long reconnects() const { return reconnects_.load(); }

  /// The site-side /healthz document: identity, session state and loop
  /// progress. Built from atomics plus the fd mutex, so the HTTP ops
  /// thread may call it while the poll loop runs.
  std::string HealthJson() const;

  /// Severs the current connection from any thread (test/chaos harness
  /// hook): the site sees a genuine TCP failure and runs the full
  /// reconnect-with-rejoin path. A no-op while disconnected.
  void InjectConnectionReset();

  /// Asks the event loop to exit cleanly at its next iteration (as if the
  /// coordinator had said kShutdown). Async-signal-safe: a SIGTERM/SIGINT
  /// handler may call it directly.
  void RequestStop() { stop_requested_.store(true); }

  /// Makes the event loop sleep `ms` before processing its next inbound
  /// frame batch (test/chaos harness hook, callable from any thread): the
  /// site keeps its TCP session but goes unresponsive — an in-process
  /// stand-in for SIGSTOP, driving the coordinator's barrier-deadline and
  /// lag-quarantine path. One-shot: the stall is consumed by the next loop
  /// iteration; call repeatedly for a sustained straggler.
  void InjectProcessingStall(long ms) { stall_ms_.store(ms); }

  const SiteNode& node() const { return *node_; }
  const SocketTransport& transport() const { return transport_; }
  long cycles_observed() const { return cycles_observed_.load(); }

 private:
  /// Dials and registers one session; updates fd_. Returns false when the
  /// retry budget is exhausted.
  bool EstablishSession();
  /// Closes the current fd (if any) and unregisters the peer.
  void TearDownSession();
  /// Polls one session until shutdown or a connection failure.
  SiteExitReason RunSession(const std::function<Vector(long)>& next_vector,
                            FrameReader* reader);
  /// Writes the site's rows into the attached telemetry registry: its
  /// node's `site.*` audit counters (named as RuntimeDriver names their
  /// totals), `site.reconnects` and its transport's rows. Called once per
  /// observed cycle and when Run() returns; a no-op without telemetry.
  void PublishMetrics();
  /// The session layer's own rows (`site.reconnects`).
  static MetricRows<SiteClient> SessionRows();

  SiteClientConfig config_;
  /// Construction instant; /healthz reports uptime relative to this.
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
  SocketTransport transport_;
  std::unique_ptr<ChaosSocketTransport> chaos_;
  std::unique_ptr<SiteNode> node_;
  /// Guards fd_ swaps against InjectConnectionReset from other threads.
  mutable std::mutex fd_mu_;
  int fd_ = -1;
  std::uint64_t retry_jitter_state_ = 0;
  /// Atomic: read by the HTTP ops thread while the poll loop advances them.
  std::atomic<long> cycles_observed_{0};
  std::atomic<long> reconnects_{0};
  /// Set by RequestStop (possibly from a signal handler); polled by the
  /// event loop.
  std::atomic<bool> stop_requested_{false};
  /// Pending one-shot processing stall in ms (see InjectProcessingStall).
  std::atomic<long> stall_ms_{0};
  SiteExitReason exit_reason_ = SiteExitReason::kShutdown;
  /// PublishMetrics' rows.
  MetricRows<SiteClient> session_rows_ = SessionRows();
  MetricRows<SiteNode::AuditStats> audit_rows_ = SiteAuditRows();
  MetricRows<SocketTransport> transport_rows_ = SocketTransportRows();
};

}  // namespace sgm

#endif  // SGM_RUNTIME_SITE_CLIENT_H_

#ifndef SGM_RUNTIME_DRIVER_H_
#define SGM_RUNTIME_DRIVER_H_

#include <memory>
#include <vector>

#include "obs/metric_registry.h"
#include "runtime/coordinator_node.h"
#include "runtime/node_metrics.h"
#include "runtime/reliable_transport.h"
#include "runtime/sim_transport.h"
#include "runtime/site_node.h"
#include "runtime/transport.h"

namespace sgm {

/// Synchronous single-process driver wiring N SiteNodes and one
/// CoordinatorNode over an InMemoryBus — the reference deployment and the
/// harness the runtime tests/examples use. Real deployments replace this
/// with their own event loop and transport; the nodes are loop-agnostic.
///
/// The transport stack, top to bottom:
///
///   nodes → ReliableTransport → [SimTransport] → InMemoryBus
///
/// The ReliableTransport is always present: it stamps sequence numbers,
/// acks every unicast (and each broadcast copy a faulted SimTransport
/// readdresses per site), retransmits unacked messages with bounded backoff
/// and dedups the receive side. The bus delivers broadcasts whole, so they
/// draw no acks. On the faultless wiring the layer is pure pass-through
/// overhead-wise — every ack arrives in the same drain, so no
/// retransmission ever fires and paper-comparable accounting is unchanged.
///
/// Each message popped off the bus is handled in place: the reliability
/// layer's verdict (ReliableTransport::Receive) decides whether the node
/// sees it, with no copy in between. A whole broadcast thus costs each live
/// site one dedup-window step and one SiteNode::OnMessage call.
///
/// The four-argument constructor layers a seeded SimTransport between the
/// reliability layer and the bus, turning the driver into the
/// deterministic-simulation harness: drops, duplicates, bounded delays
/// (delivered by advancing transport rounds whenever the bus drains) and
/// site crash/recovery, all replayable from the SimTransportConfig seed.
class RuntimeDriver {
 public:
  RuntimeDriver(int num_sites, const MonitoredFunction& function,
                const RuntimeConfig& config);

  /// Fault-injecting variant: nodes send through the reliability layer into
  /// a SimTransport that drains into the internal bus.
  /// `sim_config.num_sites` is overridden to `num_sites`.
  RuntimeDriver(int num_sites, const MonitoredFunction& function,
                const RuntimeConfig& config,
                const SimTransportConfig& sim_config);

  /// Runs the initialization synchronization from the sites' first vectors.
  void Initialize(const std::vector<Vector>& local_vectors);

  /// Executes one full update cycle: every site observes its new vector,
  /// then messages are routed to quiescence. Crashed sites neither observe
  /// nor receive until recovered.
  void Tick(const std::vector<Vector>& local_vectors);

  /// Mirrors every component's counters into the attached telemetry's
  /// metric registry (`transport.*`, `coordinator.*`, `site.*`,
  /// `failure.*`, `degraded.*`, `obs.*`, and `recovery.*` with a checkpoint
  /// store) through handles resolved on the first call. No-op without a
  /// RuntimeConfig::telemetry. Called automatically after every Tick; also
  /// callable on demand before a metrics snapshot is written out.
  void PublishMetrics();

  /// Deterministic stall-fault hook (DST): the harness's stall schedule
  /// reports which sites missed this cycle's barrier deadline. Every
  /// laggard accrues a deadline miss (consecutive misses quarantine it as
  /// kLagging — see CoordinatorNode::OnBarrierDeadlineMissed), every other
  /// site resets its miss count, and a nonempty set records the cycle
  /// degraded. No-op while the coordinator is down. Call once per Tick,
  /// after it, mirroring when the socket server's deadline would fire.
  void ReportBarrierLag(const std::vector<int>& laggards);

  // ── Coordinator crash injection (DST) ──────────────────────────────────

  /// Kills the coordinator process model immediately: its in-memory state
  /// is destroyed, its unacked outbound traffic is voided (no dead-link
  /// verdicts — the sender is gone, not the receivers), and until
  /// RecoverCoordinator() every coordinator-bound frame is dropped on the
  /// floor unacked, exactly as a dead host drops it. Requires a
  /// RuntimeConfig::checkpoint_store, since recovery needs one.
  void CrashCoordinator();

  /// Arms a crash that fires after the coordinator processes `count` more
  /// messages — landing *inside* a sync cascade's message burst rather than
  /// at a cycle boundary. Any value larger than the remaining traffic
  /// simply never fires (disarmed by the next explicit crash).
  void ArmCoordinatorCrash(long count);

  /// Rebuilds the coordinator and runs CoordinatorNode::Recover() — CHECKs
  /// that a recoverable checkpoint exists — then routes the reconciliation
  /// traffic to quiescence.
  void RecoverCoordinator();

  bool coordinator_down() const { return coordinator_ == nullptr; }
  bool crash_armed() const { return crash_after_messages_ > 0; }
  /// Committed epoch at the moment of the last crash (the recovery fence
  /// invariant: the recovered epoch must be exactly this + 1).
  std::int64_t last_crash_epoch() const { return last_crash_epoch_; }
  long coordinator_crashes() const { return coordinator_crashes_; }
  /// Coordinator-bound frames dropped while the coordinator was down.
  long coordinator_down_drops() const { return coordinator_down_drops_; }
  /// Checkpoint/recovery counters accumulated across every coordinator
  /// incarnation, the live one included.
  CoordinatorNode::RecoveryStats recovery_totals() const;

  /// Valid only while !coordinator_down().
  const CoordinatorNode& coordinator() const { return *coordinator_; }
  const InMemoryBus& bus() const { return bus_; }
  /// The fault layer, or nullptr for the faultless wiring. Crash/recovery
  /// and fault statistics live here; with a fault layer active, sender-side
  /// accounting should be read from it rather than from bus().
  SimTransport* sim_transport() { return sim_.get(); }
  const SimTransport* sim_transport() const { return sim_.get(); }
  /// The ack/retransmit layer (always wired).
  const ReliableTransport& reliable_transport() const { return *reliable_; }
  SiteNode& site(int id) { return *sites_[id]; }
  int num_sites() const { return static_cast<int>(sites_.size()); }

 private:
  void BuildNodes(int num_sites, const MonitoredFunction& function,
                  const RuntimeConfig& config, Transport* lower);
  /// Runs one unicast bus message through the receive-side reliability
  /// layer for `receiver` and hands it to the node if it survives dedup.
  void Deliver(int receiver, const RuntimeMessage& message);
  /// Delivers queued messages (and quiescence callbacks) to a fixed point,
  /// advancing the fault layer's delay rounds and the reliability layer's
  /// retransmission clock whenever the bus drains.
  void RouteToQuiescence();

  InMemoryBus bus_;
  std::unique_ptr<SimTransport> sim_;
  std::unique_ptr<ReliableTransport> reliable_;
  std::unique_ptr<CoordinatorNode> coordinator_;
  std::vector<std::unique_ptr<SiteNode>> sites_;
  /// Every site's audit counters, totalled as the sites bump them.
  SiteNode::AuditStats site_totals_;
  Telemetry* telemetry_ = nullptr;
  long cycle_ = 0;

  /// Kept for rebuilding the coordinator after a crash.
  RuntimeConfig config_;
  std::unique_ptr<MonitoredFunction> function_clone_;

  long crash_after_messages_ = 0;  ///< 0 = disarmed
  std::int64_t last_crash_epoch_ = 0;
  long coordinator_crashes_ = 0;
  long coordinator_down_drops_ = 0;
  /// Totals from dead incarnations; the live one's stats add on top.
  CoordinatorNode::RecoveryStats recovery_totals_;

  /// PublishMetrics' rows: the driver's own, then the shared publisher's.
  MetricRows<InMemoryBus> bus_rows_;
  MetricRows<SiteNode::AuditStats> site_rows_;
  MetricRows<RuntimeDriver> crash_rows_;
  NodeMetricsPublisher node_metrics_;
};

}  // namespace sgm

#endif  // SGM_RUNTIME_DRIVER_H_

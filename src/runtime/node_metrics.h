#ifndef SGM_RUNTIME_NODE_METRICS_H_
#define SGM_RUNTIME_NODE_METRICS_H_

#include "obs/flight_recorder.h"
#include "obs/metric_registry.h"
#include "obs/trace.h"
#include "runtime/coordinator_node.h"
#include "runtime/site_node.h"
#include "runtime/socket_transport.h"

namespace sgm {

struct Telemetry;

/// The `site.*` audit rows, under one set of names whether they read one
/// site's counters (a SiteClient) or a deployment's totals (RuntimeDriver).
MetricRows<SiteNode::AuditStats> SiteAuditRows();

/// A SocketTransport's write-side rows, the same in both daemon roles:
/// `transport.total_messages`, `transport.total_bytes`, the session-control
/// frames among them (`socket.session_frames`) and the `socket.*` send
/// health (failures, short writes, queue drops, write calls).
MetricRows<SocketTransport> SocketTransportRows();

/// The node-level metric publisher RuntimeDriver and CoordinatorServer
/// share. It writes every row both tiers publish; each tier adds only its
/// own rows (its transport accounting, the driver's reliability layer and
/// `site.*` totals, the server's `socket.*`). Handles are resolved on the first Publish
/// (MetricRows), so a per-cycle publish does no name lookup.
class NodeMetricsPublisher {
 public:
  NodeMetricsPublisher();

  /// Publishes into `telemetry`'s registry:
  ///  * `coordinator.*`, `failure.*` and `degraded.*` from `coordinator`,
  ///    unless it is null (a crashed coordinator keeps its last values);
  ///  * `recovery.*` from `recovery`, unless it is null;
  ///  * the telemetry self-cost `obs.*` (`obs.ring.*` only while a flight
  ///    recorder is attached);
  /// then samples the windowed time series, if enabled, at `cycle`. Call it
  /// after the tier has written its own rows.
  void Publish(Telemetry& telemetry, const CoordinatorNode* coordinator,
               const CoordinatorNode::RecoveryStats* recovery, long cycle);

 private:
  MetricRows<CoordinatorNode> coordinator_rows_;
  MetricRows<CoordinatorNode::RecoveryStats> recovery_rows_;
  MetricRows<TraceLog::SelfCost> self_cost_rows_;
  MetricRows<FlightRecorder> ring_rows_;
};

}  // namespace sgm

#endif  // SGM_RUNTIME_NODE_METRICS_H_

#include "runtime/node_metrics.h"

#include "obs/telemetry.h"

namespace sgm {

namespace {

using Node = CoordinatorNode;
using Recovery = CoordinatorNode::RecoveryStats;
using SelfCost = TraceLog::SelfCost;

constexpr MetricRows<Node>::CounterRow kNodeCounters[] = {
    {"coordinator.full_syncs", [](const Node& c) { return c.full_syncs(); }},
    {"coordinator.partial_resolutions",
     [](const Node& c) { return c.partial_resolutions(); }},
    {"coordinator.degraded_syncs",
     [](const Node& c) { return c.degraded_syncs(); }},
    {"coordinator.epoch",
     [](const Node& c) { return static_cast<long>(c.epoch()); }},
    {"coordinator.stale_epoch_drops",
     [](const Node& c) { return c.audit().stale_epoch_drops; }},
    {"coordinator.stale_epoch_applied",
     [](const Node& c) { return c.audit().stale_epoch_applied; }},
    {"coordinator.late_reports",
     [](const Node& c) { return c.audit().late_reports; }},
    {"coordinator.rejoins_granted",
     [](const Node& c) { return c.audit().rejoins_granted; }},
    {"coordinator.sync_rerequests",
     [](const Node& c) { return c.audit().sync_rerequests; }},
    {"failure.total_deaths",
     [](const Node& c) { return c.failure_detector().total_deaths(); }},
    // Straggler / bounded-staleness accounting (deadline-driven barriers).
    {"degraded.cycles", [](const Node& c) { return c.degraded_cycles(); }},
    {"degraded.lag_quarantines",
     [](const Node& c) {
       return c.failure_detector().total_lagging_verdicts();
     }},
    {"degraded.staleness_cycles_total",
     [](const Node& c) {
       return c.failure_detector().staleness_cycles_total();
     }},
};
constexpr MetricRows<Node>::GaugeRow kNodeGauges[] = {
    {"failure.live_count",
     [](const Node& c) -> double { return c.failure_detector().live_count(); }},
    {"degraded.lagging_sites",
     [](const Node& c) -> double {
       return c.failure_detector().lagging_count();
     }},
    {"degraded.staleness_cycles_max",
     [](const Node& c) -> double {
       return c.failure_detector().staleness_cycles_max();
     }},
};

constexpr MetricRows<Recovery>::CounterRow kRecoveryCounters[] = {
    {"recovery.restores", [](const Recovery& r) { return r.restores; }},
    {"recovery.snapshots_written",
     [](const Recovery& r) { return r.snapshots_written; }},
    {"recovery.wal_records", [](const Recovery& r) { return r.wal_records; }},
    {"recovery.wal_records_replayed",
     [](const Recovery& r) { return r.wal_records_replayed; }},
    {"recovery.snapshots_discarded",
     [](const Recovery& r) { return r.snapshots_discarded; }},
    {"recovery.torn_wal_bytes",
     [](const Recovery& r) { return r.torn_wal_bytes; }},
    {"recovery.reconcile_grants",
     [](const Recovery& r) { return r.reconcile_grants; }},
};

// Telemetry self-cost: what observability itself spends. Emitted counts
// include sampled-out events, so `sampled_out / events` is the live
// sampling ratio and `telemetry_ns` bounds the instrumentation tax.
constexpr MetricRows<SelfCost>::CounterRow kSelfCostCounters[] = {
    {"obs.trace.events", [](const SelfCost& c) { return c.events_emitted; }},
    {"obs.trace.recorded",
     [](const SelfCost& c) { return c.events_recorded; }},
    {"obs.trace.sampled_out",
     [](const SelfCost& c) { return c.events_sampled_out; }},
    {"obs.trace.bytes_written",
     [](const SelfCost& c) { return static_cast<long>(c.bytes_written); }},
    {"obs.telemetry.ns",
     [](const SelfCost& c) { return static_cast<long>(c.telemetry_ns); }},
};

constexpr MetricRows<FlightRecorder>::CounterRow kRingCounters[] = {
    {"obs.ring.recorded",
     [](const FlightRecorder& r) { return r.lines_recorded(); }},
    {"obs.ring.overwrites",
     [](const FlightRecorder& r) { return r.overwrites(); }},
    {"obs.ring.dropped",
     [](const FlightRecorder& r) { return r.lines_dropped(); }},
};

}  // namespace

NodeMetricsPublisher::NodeMetricsPublisher()
    : coordinator_rows_(kNodeCounters, kNodeGauges),
      recovery_rows_(kRecoveryCounters),
      self_cost_rows_(kSelfCostCounters),
      ring_rows_(kRingCounters) {}

void NodeMetricsPublisher::Publish(
    Telemetry& telemetry, const ReliableTransport& reliable,
    const CoordinatorNode* coordinator,
    const CoordinatorNode::RecoveryStats* recovery, long cycle) {
  MetricRegistry* registry = &telemetry.registry;
  reliable.PublishMetrics(registry);
  if (coordinator != nullptr) coordinator_rows_.Publish(registry, *coordinator);
  if (recovery != nullptr) recovery_rows_.Publish(registry, *recovery);
  self_cost_rows_.Publish(registry, telemetry.trace.self_cost());
  if (const FlightRecorder* ring = telemetry.trace.flight_recorder()) {
    ring_rows_.Publish(registry, *ring);
  }
  // Windowed time-series export: one sample per cycle (idempotent — an
  // on-demand publish within the same cycle does not duplicate).
  if (telemetry.series) telemetry.series->Sample(cycle, *registry);
}

}  // namespace sgm

#include "runtime/site_node.h"

#include "core/check.h"
#include "estimators/sampling.h"
#include "estimators/sgm_rules.h"
#include "geometry/ball.h"
#include "obs/telemetry.h"

namespace sgm {

SiteNode::SiteNode(int id, int num_sites, const MonitoredFunction& function,
                   const RuntimeConfig& config, Transport* transport)
    : id_(id),
      heartbeat_interval_(HeartbeatIntervalCycles(num_sites)),
      num_trials_(config.num_trials),
      max_step_norm_(config.max_step_norm),
      drift_norm_cap_(config.drift_norm_cap),
      sampling_(config.delta, num_sites),
      seed_(config.seed),
      transport_(transport),
      telemetry_(config.telemetry),
      threshold_(config.threshold),
      function_(function.Clone()) {
  SGM_CHECK(id >= 0 && id < num_sites);
  SGM_CHECK(transport != nullptr);
  SGM_CHECK(config.num_trials >= 1 &&
            config.num_trials <= kMaxSamplingTrials);
  SGM_CHECK(config.max_step_norm > 0.0);
  if (telemetry_ != nullptr) {
    ball_test_ns_ = telemetry_->registry.GetHistogram("site.ball_test_ns",
                                                      LatencyBucketsNs());
  }
}

Vector SiteNode::Drift() const { return local_ - synced_local_; }

void SiteNode::Count(long AuditStats::*counter) {
  ++(audit_.*counter);
  if (audit_totals_ != nullptr) ++(audit_totals_->*counter);
}

void SiteNode::SendToCoordinator(RuntimeMessage message) {
  message.from = id_;
  message.to = kCoordinatorId;
  message.epoch = epoch_;
  SendTraced(transport_, telemetry_, message);
}

void SiteNode::SendHeartbeatIfDue() {
  // Slots fixed by site id keep at most ⌈N/H⌉ beats in any one cycle. A
  // countdown reset by every send would not: the initialization sync resets
  // every site at once, lining the whole fleet up on the same cycles.
  if ((observes_ + id_) % heartbeat_interval_ != 0) return;
  RuntimeMessage heartbeat;
  heartbeat.type = RuntimeMessage::Type::kHeartbeat;
  heartbeat.scalar = static_cast<double>(anchor_epoch_);
  Count(&AuditStats::heartbeats_sent);
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kHeartbeat, id_);
  }
  SendToCoordinator(std::move(heartbeat));
}

void SiteNode::RequestRejoin() {
  if (rejoin_requested_) return;
  rejoin_requested_ = true;
  RuntimeMessage request;
  request.type = RuntimeMessage::Type::kRejoinRequest;
  Count(&AuditStats::rejoin_requests_sent);
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kRejoinRequest, id_);
  }
  SendToCoordinator(std::move(request));
}

void SiteNode::Unanchor() {
  anchored_ = false;
  rejoin_requested_ = false;
  RequestRejoin();
}

void SiteNode::OnTransportReconnect() {
  if (epoch_ == 0 && !initialized_) return;  // never heard from the
                                             // coordinator: hello suffices
  // The previous request (if any) may have died with the old connection;
  // force a fresh one. kRejoinRequest is fencing-exempt control traffic, so
  // the coordinator reads the echoed epoch even when the site is behind.
  rejoin_requested_ = false;
  RequestRejoin();
}

void SiteNode::Observe(const Vector& local_vector) {
  local_ = local_vector;
  in_first_trial_ = false;
  ++observes_;
  if (!initialized_ || !anchored_) {
    // No current anchor: monitoring against a stale (or absent) estimate
    // would be meaningless. If a sync round demonstrably exists (epoch_ >
    // 0) the anchor was lost in flight — keep asking to be resynced, every
    // cycle, since the previous request may itself have been lost. Before
    // any coordinator contact, a plain heartbeat is all there is to say.
    if (epoch_ > 0) {
      rejoin_requested_ = false;
      RequestRejoin();
    } else {
      SendHeartbeatIfDue();
    }
    return;
  }
  ++cycles_since_sync_;
  if (mute_remaining_ > 0) {
    --mute_remaining_;
    SendHeartbeatIfDue();
    return;
  }

  // Monitoring phase: M independent self-sampling trials; any hit arms the
  // un-scaled GM ball test (Lemma 2). The coins' cycle is the slot clock,
  // with initialization at cycle 0, as in the simulator.
  const double drift_norm = DriftAndNorm(local_, synced_local_, &drift_);
  const double U = DriftBoundU(max_step_norm_, cycles_since_sync_,
                               drift_norm_cap_, epsilon_t_);
  inclusion_probability_ = sampling_.Probability(U, drift_norm);
  const TrialDraw draw = DrawTrials(seed_, id_, observes_ - 1,
                                    inclusion_probability_, num_trials_);
  in_first_trial_ = draw.first_trial;
  if (draw.any_trial) {
    bool crossed = false;
    {
      ScopedTimer timer(ball_test_ns_);
      const Ball constraint = Ball::LocalConstraint(e_, drift_);
      crossed = function_->BallCrossesThreshold(constraint, threshold_);
    }
    if (crossed) {
      if (telemetry_ != nullptr) {
        telemetry_->trace.Emit(TraceEventId::kLocalAlarm, id_);
      }
      RuntimeMessage alarm;
      alarm.type = RuntimeMessage::Type::kLocalViolation;
      SendToCoordinator(std::move(alarm));
      return;
    }
  }
  SendHeartbeatIfDue();
}

void SiteNode::ApplyAnchor(const RuntimeMessage& message, const char* source) {
  if (message.epoch != epoch_) {  // fencing audit: must be unreachable
    Count(&AuditStats::stale_epoch_applied);
  }
  if (telemetry_ != nullptr) {
    // Sites stamp the coordinator-issued epoch they anchor to; in a
    // per-site process this labels the site's trace file with the same
    // tepoch stream the coordinator's file carries, letting the merge
    // group events by protocol incarnation.
    telemetry_->trace.SetEpoch(message.epoch);
    telemetry_->trace.Emit(TraceEventId::kAnchorApplied, id_,
                           {{"epoch", message.epoch},
                            {"source", source},
                            {"span", message.span}});
  }
  e_ = message.payload;
  epsilon_t_ = message.scalar;
  anchor_epoch_ = message.epoch;
  synced_local_ = local_;
  function_->OnSync(e_);
  cycles_since_sync_ = 0;
  mute_remaining_ = 0;
  initialized_ = true;
  anchored_ = true;
  rejoin_requested_ = false;
}

void SiteNode::OnMessage(const RuntimeMessage& message) {
  // ── Epoch fence ────────────────────────────────────────────────────────
  // Stale rounds are dropped outright; a forward jump past the next round
  // means this site missed a sync and must not monitor against its stale
  // anchor until resynchronized.
  if (message.epoch < epoch_) {
    Count(&AuditStats::stale_epoch_drops);
    if (telemetry_ != nullptr) {
      telemetry_->trace.Emit(TraceEventId::kStaleEpochDrop, id_,
                             {{"msg_epoch", message.epoch}});
    }
    return;
  }
  if (message.epoch > epoch_) {
    const bool gap = message.epoch > epoch_ + 1;
    if (gap && telemetry_ != nullptr) {
      telemetry_->trace.Emit(
          TraceEventId::kEpochGap, id_,
          {{"from_epoch", epoch_}, {"to_epoch", message.epoch}});
    }
    epoch_ = message.epoch;
    const bool self_anchoring =
        message.type == RuntimeMessage::Type::kNewEstimate ||
        message.type == RuntimeMessage::Type::kRejoinGrant;
    if (gap && initialized_ && !self_anchoring) Unanchor();
  }

  switch (message.type) {
    case RuntimeMessage::Type::kProbeRequest: {
      // The probe names the coordinator's last estimate broadcast. Holding
      // an older anchor, this site missed it (it may even have acked it,
      // then dropped it behind a probe that overtook it): stop monitoring
      // against the stale estimate and ask to be re-anchored.
      const std::optional<long> coordinator_anchor = WireCount(message.scalar);
      if (anchored_ && coordinator_anchor.has_value() &&
          anchor_epoch_ < *coordinator_anchor) {
        Unanchor();
        return;
      }
      // The coordinator probes trial 1 only; an un-anchored site's drift is
      // relative to a stale estimate and must not enter the HT sample.
      if (!in_first_trial_ || !anchored_) return;
      RuntimeMessage report;
      report.type = RuntimeMessage::Type::kDriftReport;
      report.payload = Drift();
      report.scalar = inclusion_probability_;
      // Sites never mint spans: the response belongs to the request's span,
      // so the answer lands in the same phase of the cycle's span tree.
      report.span = message.span;
      report.parent_span = message.parent_span;
      SendToCoordinator(std::move(report));
      return;
    }
    case RuntimeMessage::Type::kFullStateRequest: {
      // Always answered — the raw v_i is valid regardless of anchoring.
      RuntimeMessage report;
      report.type = RuntimeMessage::Type::kStateReport;
      report.payload = local_;
      report.span = message.span;
      report.parent_span = message.parent_span;
      SendToCoordinator(std::move(report));
      return;
    }
    case RuntimeMessage::Type::kNewEstimate: {
      ApplyAnchor(message, "new_estimate");
      return;
    }
    case RuntimeMessage::Type::kRejoinGrant: {
      ApplyAnchor(message, "rejoin_grant");
      // Complete the handshake: ship fresh state so the coordinator can
      // update its last-known vector and mark this site alive.
      RuntimeMessage report;
      report.type = RuntimeMessage::Type::kStateReport;
      report.payload = local_;
      report.span = message.span;  // the handshake reply joins the grant span
      report.parent_span = message.parent_span;
      SendToCoordinator(std::move(report));
      return;
    }
    case RuntimeMessage::Type::kResolved: {
      if (!anchored_) return;
      if (message.epoch != epoch_) {  // fencing audit: must be unreachable
        Count(&AuditStats::stale_epoch_applied);
      }
      mute_remaining_ = WireCount(message.scalar).value_or(0);  // else no mute
      return;
    }
    default:
      // Site-originated types and transport-level acks are never applied
      // here.
      return;
  }
}

}  // namespace sgm

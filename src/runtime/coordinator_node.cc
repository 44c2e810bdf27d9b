#include "runtime/coordinator_node.h"

#include <algorithm>

#include "core/check.h"
#include "estimators/horvitz_thompson.h"
#include "estimators/tail_bounds.h"
#include "geometry/ball.h"
#include "obs/telemetry.h"

namespace sgm {

namespace {

/// Span-counter headroom added on recovery: spans minted after the last WAL
/// append are not durable, so a recovered coordinator skips ahead by a
/// stride no single OnMessage burst can mint through, guaranteeing it never
/// re-issues a span id the previous incarnation already put on the wire.
constexpr std::int64_t kRecoverySpanStride = 1024;

}  // namespace

CoordinatorNode::CoordinatorNode(int num_sites,
                                 const MonitoredFunction& function,
                                 const RuntimeConfig& config,
                                 Transport* transport)
    : num_sites_(num_sites),
      function_(function.Clone()),
      config_(config),
      transport_(transport),
      telemetry_(config.telemetry),
      fd_(num_sites, config.failure_detector),
      last_known_(num_sites),
      last_grant_cycle_(num_sites, -1),
      grant_pending_(num_sites, false),
      anchor_undelivered_(num_sites, false) {
  SGM_CHECK(num_sites > 0);
  SGM_CHECK(transport != nullptr);
  SGM_CHECK(config.empty_collection_retry_cycles >= 1);
  SGM_CHECK(config.degraded_resync_cycles >= 1);
  SGM_CHECK(config.max_sync_retries >= 0);
  SGM_CHECK(config.rejoin_resync_cycles >= 1);
  SGM_CHECK(config.checkpoint_interval_cycles >= 1);
  SGM_CHECK(config.recovery_resync_cycles >= 1);
  // A quiet site is silent for heartbeat_interval_cycles cycles between
  // heartbeats; any longer than a site's (jittered) suspect threshold and
  // the detector would read the cadence itself as a failure.
  for (int site = 0; site < num_sites; ++site) {
    SGM_CHECK_MSG(config.heartbeat_interval_cycles <= fd_.suspect_after(site),
                  "heartbeat_interval_cycles %d exceeds site %d's failure "
                  "detector suspect threshold %d",
                  config.heartbeat_interval_cycles, site,
                  fd_.suspect_after(site));
  }
  if (telemetry_ != nullptr) {
    fd_.set_telemetry(telemetry_);
    ht_estimate_ns_ = telemetry_->registry.GetHistogram(
        "coordinator.ht_estimate_ns", LatencyBucketsNs());
    full_sync_ns_ = telemetry_->registry.GetHistogram(
        "coordinator.full_sync_ns", LatencyBucketsNs());
    restore_ns_ = telemetry_->registry.GetHistogram(
        "recovery.restore_ns", LatencyBucketsNs());
  }
}

void CoordinatorNode::AttachReliability(ReliableTransport* reliable) {
  SGM_CHECK(reliable != nullptr);
  reliable_ = reliable;
  reliable_->SetDeadLinkHandler(
      [this](int site, const RuntimeMessage& m) { OnLinkDead(site, m); });
}

double CoordinatorNode::CurrentU() const {
  const double accumulated =
      config_.max_step_norm *
      static_cast<double>(std::max<long>(1, cycles_since_sync_));
  const double threshold_scale =
      config_.u_threshold_factor *
      std::max(epsilon_t_, config_.max_step_norm);
  return std::min({accumulated, config_.drift_norm_cap, threshold_scale});
}

void CoordinatorNode::Start() {
  // Baseline snapshot before any traffic: the store is never empty once the
  // deployment runs, so recovery always has a candidate.
  WriteSnapshot();
  RequestFullState();
}

CoordinatorCheckpoint CoordinatorNode::BuildCheckpoint() const {
  CoordinatorCheckpoint state;
  state.epoch = epoch_;
  state.cycle = cycle_;
  state.believes_above = believes_above_;
  state.epsilon_t = epsilon_t_;
  state.estimate = e_;
  state.full_syncs = full_syncs_;
  state.partial_resolutions = partial_resolutions_;
  state.degraded_syncs = degraded_syncs_;
  state.cycles_since_sync = cycles_since_sync_;
  state.retry_full_in = retry_full_in_;
  state.next_span = next_span_;
  state.last_cycle_span = last_cycle_span_;
  state.num_sites = num_sites_;
  state.threshold = config_.threshold;
  state.delta = config_.delta;
  state.max_step_norm = config_.max_step_norm;
  state.sites.resize(num_sites_);
  const std::vector<FailureDetector::SiteSnapshot> fd_sites = fd_.Snapshot();
  for (int i = 0; i < num_sites_; ++i) {
    SiteCheckpoint& site = state.sites[i];
    site.last_known = last_known_[i];
    site.last_grant_cycle = last_grant_cycle_[i];
    site.grant_pending = grant_pending_[i];
    site.anchor_undelivered = anchor_undelivered_[i];
    site.fd_state = fd_sites[i].state;
    site.fd_last_heard_cycle = fd_sites[i].last_heard_cycle;
    site.fd_deaths = fd_sites[i].deaths;
    site.fd_death_cycles = fd_sites[i].death_cycles;
    site.fd_quarantine_until = fd_sites[i].quarantine_until;
  }
  return state;
}

void CoordinatorNode::WriteSnapshot() {
  if (config_.checkpoint_store == nullptr) return;
  std::vector<std::uint8_t> bytes = EncodeSnapshot(BuildCheckpoint());
  const std::int64_t size = static_cast<std::int64_t>(bytes.size());
  config_.checkpoint_store->PutSnapshot(std::move(bytes));
  ++recovery_stats_.snapshots_written;
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kCheckpointWrite, kCoordinatorId,
                           {{"epoch", epoch_}, {"bytes", size}});
  }
}

void CoordinatorNode::AppendWal(WalRecord record) {
  if (config_.checkpoint_store == nullptr) return;
  record.cycle = cycle_;
  record.epoch = epoch_;
  record.next_span = next_span_;
  config_.checkpoint_store->AppendWal(EncodeWalRecord(record));
  ++recovery_stats_.wal_records;
}

bool CoordinatorNode::Recover() {
  SGM_CHECK_MSG(config_.checkpoint_store != nullptr,
                "Recover() needs a checkpoint store");
  ScopedTimer timer(restore_ns_);
  Result<Reconstruction> result =
      ReconstructCoordinatorState(*config_.checkpoint_store);
  if (!result.ok()) return false;
  const Reconstruction& rec = result.ValueOrDie();
  const CoordinatorCheckpoint& s = rec.state;
  SGM_CHECK_MSG(s.num_sites == num_sites_,
                "checkpoint from a different deployment");

  epoch_ = s.epoch;
  cycle_ = s.cycle;
  believes_above_ = s.believes_above;
  epsilon_t_ = s.epsilon_t;
  e_ = s.estimate;
  // Re-anchor the function clone exactly as the sync that produced the
  // estimate did (reference-anchored functions rebuild their safe zone).
  if (!e_.empty()) function_->OnSync(e_);
  full_syncs_ = s.full_syncs;
  partial_resolutions_ = s.partial_resolutions;
  degraded_syncs_ = s.degraded_syncs;
  cycles_since_sync_ = s.cycles_since_sync;
  retry_full_in_ = s.retry_full_in;
  last_cycle_span_ = s.last_cycle_span;
  next_span_ = s.next_span + kRecoverySpanStride;
  // In-flight rounds are not checkpointed: recovery restores to kIdle and
  // the reconciliation below re-derives anything the crash interrupted.
  phase_ = Phase::kIdle;
  cycle_span_ = 0;
  phase_span_ = 0;
  alarm_this_cycle_ = false;
  sync_retries_ = 0;

  std::vector<FailureDetector::SiteSnapshot> fd_sites(num_sites_);
  for (int i = 0; i < num_sites_; ++i) {
    const SiteCheckpoint& site = s.sites[i];
    last_known_[i] = site.last_known;
    last_grant_cycle_[i] = site.last_grant_cycle;
    grant_pending_[i] = site.grant_pending;
    anchor_undelivered_[i] = site.anchor_undelivered;
    fd_sites[i].state = site.fd_state;
    fd_sites[i].last_heard_cycle = site.fd_last_heard_cycle;
    fd_sites[i].deaths = site.fd_deaths;
    fd_sites[i].death_cycles = site.fd_death_cycles;
    fd_sites[i].quarantine_until = site.fd_quarantine_until;
  }
  fd_.Restore(fd_sites, cycle_);

  ++recovery_stats_.restores;
  recovery_stats_.wal_records_replayed += rec.wal_records_replayed;
  recovery_stats_.snapshots_discarded += rec.snapshots_discarded;
  recovery_stats_.torn_wal_bytes += rec.torn_wal_bytes;

  // Fence: one bump past the highest committed epoch. Every frame the dead
  // incarnation left in flight carries epoch ≤ the committed value (WAL
  // records are appended before their messages are sent), so the ordinary
  // epoch machinery quarantines all of it — sites drop stale data, and any
  // site that anchored on the final pre-crash broadcast re-anchors through
  // the grants below.
  ++epoch_;
  epoch_cycle_start_ = epoch_;
  const std::int64_t recovery_span = MintSpan();
  if (telemetry_ != nullptr) {
    // The coordinator issues the trace epoch: every subsequent event of
    // this incarnation carries the fenced epoch as its tepoch stamp.
    telemetry_->trace.SetEpoch(epoch_);
    telemetry_->trace.Emit(TraceEventId::kEpochBump, kCoordinatorId,
                           {{"epoch", epoch_}});
    telemetry_->trace.Emit(
        TraceEventId::kRecoveryBegin, kCoordinatorId,
        {{"span", recovery_span},
         {"epoch", epoch_},
         {"wal_replayed", rec.wal_records_replayed}});
    if (rec.snapshots_discarded > 0) {
      telemetry_->trace.Emit(TraceEventId::kSnapshotFallback, kCoordinatorId,
                             {{"discarded", rec.snapshots_discarded}});
    }
    if (rec.torn_wal_bytes > 0) {
      telemetry_->trace.Emit(TraceEventId::kWalTornTail, kCoordinatorId,
                             {{"bytes", rec.torn_wal_bytes}});
    }
  }
  // Durable point of no return: the fenced epoch and the strided span
  // counter land in a fresh snapshot (and a fresh WAL segment) before any
  // reconciliation traffic goes out.
  WriteSnapshot();

  if (e_.empty()) {
    // Crashed before the first sync ever completed: start from scratch.
    RequestFullState();
  } else {
    // Reconciliation: re-anchor every reachable site at the fenced epoch
    // through the ordinary rejoin-grant handshake, then fold their drift
    // back in with a scheduled full resync. Dead sites rejoin on revival;
    // quarantined sites stay deferred.
    for (int site = 0; site < num_sites_; ++site) {
      last_grant_cycle_[site] = -1;  // recovery grants bypass rate limiting
      // Dead and lagging sites rejoin on revival/catch-up contact instead:
      // a grant unicast at a silent endpoint would only be lost again.
      if (fd_.state(site) == FailureDetector::State::kDead) continue;
      if (fd_.state(site) == FailureDetector::State::kLagging) continue;
      if (fd_.IsQuarantined(site)) continue;
      MaybeGrantRejoin(site);
      ++recovery_stats_.reconcile_grants;
    }
    ScheduleResync(config_.recovery_resync_cycles);
  }
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(
        TraceEventId::kRecoveryComplete, kCoordinatorId,
        {{"span", recovery_span},
         {"epoch", epoch_},
         {"grants", recovery_stats_.reconcile_grants}});
  }
  return true;
}

void CoordinatorNode::ScheduleResync(long cycles) {
  retry_full_in_ = retry_full_in_ > 0 ? std::min(retry_full_in_, cycles)
                                      : cycles;
}

void CoordinatorNode::BeginCycle() {
  ++cycle_;
  epoch_cycle_start_ = epoch_;
  if (config_.checkpoint_store != nullptr &&
      cycle_ % config_.checkpoint_interval_cycles == 0) {
    WriteSnapshot();
  }
  fd_.BeginCycle(cycle_);
  if (reliable_ != nullptr) {
    // Heartbeat-miss deaths and lag quarantines release the site's pending
    // acks and stop retransmissions toward it; the rejoin path marks the
    // link up again.
    for (int site = 0; site < num_sites_; ++site) {
      const FailureDetector::State state = fd_.state(site);
      if ((state == FailureDetector::State::kDead ||
           state == FailureDetector::State::kLagging) &&
          reliable_->IsLinkUp(site)) {
        reliable_->MarkLinkDown(site);
      }
    }
  }
  if (phase_ == Phase::kIdle) {
    alarm_this_cycle_ = false;
    ++cycles_since_sync_;
    if (retry_full_in_ > 0 && --retry_full_in_ == 0) {
      retry_full_in_ = -1;
      RequestFullState();
    }
  }
}

void CoordinatorNode::SendBroadcast(RuntimeMessage message) {
  message.from = kCoordinatorId;
  message.to = kBroadcastId;
  message.epoch = epoch_;
  transport_->Send(std::move(message));
}

void CoordinatorNode::BumpEpoch() {
  ++epoch_;
  if (telemetry_ != nullptr) {
    telemetry_->trace.SetEpoch(epoch_);
    telemetry_->trace.Emit(TraceEventId::kEpochBump, kCoordinatorId,
                           {{"epoch", epoch_}});
  }
  // Logged before the round's first message is sent (both callers bump
  // before broadcasting), so no epoch a site ever sees can outrun the WAL.
  WalRecord record;
  record.kind = WalRecord::Kind::kEpochBump;
  AppendWal(record);
}

std::int64_t CoordinatorNode::TagSpan(std::int64_t span) const {
  return cascade_sampled_ ? span : span | kSpanUnsampledBit;
}

void CoordinatorNode::EnsureCycleSpan(const char* trigger) {
  if (cycle_span_ != 0) return;  // escalation continues the existing tree
  const std::int64_t root = MintSpan();
  // The head-based sampling decision is minted with the root span and
  // carried by the tag bit on every span of the cascade; the raw root id
  // keys the seeded coin so a replay decides identically.
  cascade_sampled_ =
      TraceSampleDecision(config_.seed, root, config_.trace_sample_rate);
  cycle_span_ = TagSpan(root);
  last_cycle_span_ = cycle_span_;
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kSyncCycleBegin, kCoordinatorId,
                           {{"span", cycle_span_},
                            {"trigger", std::string(trigger)}});
  }
}

void CoordinatorNode::CloseCycleSpan() {
  cycle_span_ = 0;
  phase_span_ = 0;
  cascade_sampled_ = true;
}

void CoordinatorNode::RequestFullState() {
  BumpEpoch();  // a new sync round begins
  EnsureCycleSpan("scheduled");  // no-op when escalating from a probe
  phase_span_ = TagSpan(MintSpan());
  phase_ = Phase::kCollecting;
  sync_retries_ = 0;
  collected_.assign(num_sites_, Vector());
  received_.assign(num_sites_, false);
  received_count_ = 0;
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kFullSyncBegin, kCoordinatorId,
                           {{"epoch", epoch_},
                            {"span", phase_span_},
                            {"parent", cycle_span_}});
  }
  RuntimeMessage request;
  request.type = RuntimeMessage::Type::kFullStateRequest;
  request.span = phase_span_;
  request.parent_span = cycle_span_;
  SendBroadcast(std::move(request));
}

void CoordinatorNode::FinishFullSync(bool degraded) {
  ScopedTimer timer(full_sync_ns_);
  // A degraded sync may hold no vector at all for a site that has never
  // managed to report; average over the sites we have state for.
  Vector sum;
  int have = 0;
  for (const Vector& v : collected_) {
    if (v.empty()) continue;
    if (sum.empty()) sum = Vector(v.dim());
    sum.Axpy(1.0, v);
    ++have;
  }
  SGM_CHECK(have > 0);
  sum /= static_cast<double>(have);
  e_ = sum;
  function_->OnSync(e_);
  believes_above_ = function_->Value(e_) > config_.threshold;
  epsilon_t_ = function_->DistanceToSurface(e_, config_.threshold);
  cycles_since_sync_ = 0;
  ++full_syncs_;
  phase_ = Phase::kIdle;
  const std::int64_t broadcast_span = TagSpan(MintSpan());
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kFullSyncComplete, kCoordinatorId,
                           {{"epoch", epoch_},
                            {"degraded", degraded ? 1 : 0},
                            {"span", phase_span_},
                            {"parent", cycle_span_}});
  }
  // Committed before the anchor broadcast: a site can only ever anchor on an
  // estimate the WAL already holds.
  WalRecord record;
  record.kind = WalRecord::Kind::kSyncCommit;
  record.degraded = degraded;
  record.believes_above = believes_above_;
  record.epsilon_t = epsilon_t_;
  record.estimate = e_;
  record.full_syncs = full_syncs_;
  record.degraded_syncs = degraded_syncs_;
  record.last_cycle_span = last_cycle_span_;
  AppendWal(record);

  RuntimeMessage estimate;
  estimate.type = RuntimeMessage::Type::kNewEstimate;
  estimate.payload = e_;
  estimate.scalar = epsilon_t_;
  estimate.span = broadcast_span;
  estimate.parent_span = cycle_span_;
  SendBroadcast(std::move(estimate));
  CloseCycleSpan();  // the cascade ends with the anchor broadcast
}

void CoordinatorNode::ResolvePartial(const Vector& v_hat) {
  ++partial_resolutions_;
  phase_ = Phase::kIdle;
  const std::int64_t resolve_span = TagSpan(MintSpan());
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kPartialResolution, kCoordinatorId,
                           {{"span", resolve_span}, {"parent", cycle_span_}});
  }
  // Certified cooldown (see SgmOptions::certified_cooldown): the average
  // cannot cross for (D − ε)/max_step cycles.
  const double U = CurrentU();
  const double epsilon = std::min(BernsteinEpsilon(config_.delta, U),
                                  0.5 * epsilon_t_);
  const long mute = function_->CertifiedCooldownCycles(
      v_hat, config_.threshold, epsilon, config_.max_step_norm);

  WalRecord record;
  record.kind = WalRecord::Kind::kPartialResolution;
  record.partial_resolutions = partial_resolutions_;
  record.last_cycle_span = last_cycle_span_;
  AppendWal(record);

  RuntimeMessage resolved;
  resolved.type = RuntimeMessage::Type::kResolved;
  resolved.scalar = static_cast<double>(mute);
  resolved.span = resolve_span;
  resolved.parent_span = cycle_span_;
  SendBroadcast(std::move(resolved));
  CloseCycleSpan();  // the cascade ends with the dismissal broadcast
}

void CoordinatorNode::MaybeGrantRejoin(int site) {
  if (e_.empty()) return;  // pre-initialization: the first sync captures it
  if (fd_.IsQuarantined(site)) return;  // flapping: defer until it settles
  if (last_grant_cycle_[site] == cycle_) return;  // one grant per cycle
  last_grant_cycle_[site] = cycle_;
  const FailureDetector::State state = fd_.state(site);
  if (state == FailureDetector::State::kDead ||
      state == FailureDetector::State::kLagging) {
    fd_.BeginRejoin(site);
  }
  grant_pending_[site] = true;
  anchor_undelivered_[site] = false;  // this grant supersedes the lost anchor
  if (reliable_ != nullptr) reliable_->MarkLinkUp(site);
  ++audit_.rejoins_granted;
  // A rejoin grant is its own (single-node) causal tree: it re-anchors one
  // site outside any sync cascade.
  const std::int64_t grant_span = MintSpan();
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kRejoinGrant, site,
                           {{"epoch", epoch_}, {"span", grant_span}});
  }
  WalRecord record;
  record.kind = WalRecord::Kind::kRejoinGrant;
  record.site = site;
  AppendWal(record);

  RuntimeMessage grant;
  grant.type = RuntimeMessage::Type::kRejoinGrant;
  grant.from = kCoordinatorId;
  grant.to = site;
  grant.epoch = epoch_;
  grant.payload = e_;
  grant.scalar = epsilon_t_;
  grant.span = grant_span;
  transport_->Send(std::move(grant));
}

void CoordinatorNode::ObserveSite(int site, std::int64_t msg_epoch) {
  fd_.RecordAlive(site);
  const FailureDetector::State state = fd_.state(site);
  if (state != FailureDetector::State::kDead &&
      state != FailureDetector::State::kRejoining &&
      state != FailureDetector::State::kLagging) {
    // A live site that was already behind before this cycle began holds a
    // stale anchor it cannot detect on its own in a quiet period (gap
    // detection needs an inbound broadcast) — resync it proactively.
    // Lagging an in-cycle epoch bump is NOT staleness: retransmissions are
    // already delivering that round. A recorded anchor-delivery failure
    // overrides both: the site may be epoch-current yet un-anchored.
    if (msg_epoch < epoch_cycle_start_ || anchor_undelivered_[site]) {
      MaybeGrantRejoin(site);
    }
    return;
  }
  if (msg_epoch == epoch_ && !anchor_undelivered_[site]) {
    // The site is fully current — it missed nothing (e.g. a transport-level
    // give-up fired spuriously under heavy loss, a quarantined laggard
    // caught up within its epoch, or the rejoin handshake's fresh state
    // just arrived). Revive directly; a laggard's staleness window closes
    // inside CompleteRejoin.
    fd_.CompleteRejoin(site);
    if (reliable_ != nullptr) reliable_->MarkLinkUp(site);
  } else {
    MaybeGrantRejoin(site);
  }
}

void CoordinatorNode::OnLinkDead(int site, const RuntimeMessage& message) {
  fd_.ReportUnreachable(site);
  if (reliable_ != nullptr) reliable_->MarkLinkDown(site);
  // An anchor (estimate broadcast or rejoin grant) that never got through
  // leaves the site monitoring against a stale estimate even if it looks
  // alive and epoch-current later (it may have received the same round's
  // request but not its result). Remember, and re-grant on next contact.
  if (message.type == RuntimeMessage::Type::kNewEstimate ||
      message.type == RuntimeMessage::Type::kRejoinGrant) {
    anchor_undelivered_[site] = true;
  }
}

bool CoordinatorNode::AllLiveReported() const {
  for (int site = 0; site < num_sites_; ++site) {
    if (fd_.IsLive(site) && !received_[site]) return false;
  }
  return true;
}

void CoordinatorNode::CompleteCollection() {
  bool degraded = false;
  bool missing_live = false;
  for (int i = 0; i < num_sites_; ++i) {
    if (received_[i]) continue;
    degraded = true;
    missing_live = missing_live || fd_.IsLive(i);
    if (!last_known_[i].empty()) {
      collected_[i] = last_known_[i];
    }  // else: leave empty, FinishFullSync averages over the rest
  }
  if (degraded) {
    ++degraded_syncs_;
    // Dead sites re-enter via the rejoin path (which schedules its own
    // resync); only transient losses from live sites warrant one here.
    if (missing_live) ScheduleResync(config_.degraded_resync_cycles);
  }
  FinishFullSync(degraded);
}

void CoordinatorNode::OnMessage(const RuntimeMessage& message) {
  const int site = message.from;
  SGM_CHECK(site >= 0 && site < num_sites_);
  // The coordinator is the epoch authority; sites only ever echo epochs it
  // issued, so a message from the future is a protocol bug.
  SGM_CHECK_MSG(message.epoch <= epoch_, "message from a future epoch");
  ObserveSite(site, message.epoch);

  // ── Epoch fence ────────────────────────────────────────────────────────
  // Data from an older round is dropped, never applied. Control traffic is
  // exempt: heartbeats and rejoin requests legitimately carry the stale
  // epoch of a site that fell behind (ObserveSite above acted on them).
  const bool control = message.type == RuntimeMessage::Type::kHeartbeat ||
                       message.type == RuntimeMessage::Type::kRejoinRequest;
  if (!control && message.epoch < epoch_) {
    ++audit_.stale_epoch_drops;
    if (telemetry_ != nullptr) {
      telemetry_->trace.Emit(TraceEventId::kStaleEpochDrop, kCoordinatorId,
                             {{"msg_epoch", message.epoch}});
    }
    return;
  }

  switch (message.type) {
    case RuntimeMessage::Type::kHeartbeat:
      return;  // liveness only; ObserveSite already recorded it
    case RuntimeMessage::Type::kRejoinRequest: {
      // Sites request a rejoin whenever they detect an epoch gap — also
      // after short outages the failure detector never saw.
      MaybeGrantRejoin(site);
      return;
    }
    case RuntimeMessage::Type::kLocalViolation: {
      if (phase_ != Phase::kIdle || alarm_this_cycle_) return;  // coalesce
      alarm_this_cycle_ = true;
      BumpEpoch();  // the probe round begins
      EnsureCycleSpan("local_violation");
      phase_span_ = TagSpan(MintSpan());
      phase_ = Phase::kProbing;
      probe_drift_.assign(num_sites_, Vector());
      probe_g_.assign(num_sites_, 0.0);
      probe_reports_ = 0;
      if (telemetry_ != nullptr) {
        telemetry_->trace.Emit(TraceEventId::kProbeBegin, kCoordinatorId,
                               {{"epoch", epoch_},
                                {"span", phase_span_},
                                {"parent", cycle_span_}});
      }
      RuntimeMessage probe;
      probe.type = RuntimeMessage::Type::kProbeRequest;
      probe.span = phase_span_;
      probe.parent_span = cycle_span_;
      SendBroadcast(std::move(probe));
      return;
    }
    case RuntimeMessage::Type::kDriftReport: {
      if (phase_ != Phase::kProbing) return;
      if (message.epoch != epoch_) {  // fencing audit: must be unreachable
        ++audit_.stale_epoch_applied;
        return;
      }
      SGM_CHECK_MSG(message.scalar > 0.0,
                    "drift report with non-positive inclusion probability");
      if (probe_g_[site] > 0.0) return;  // first first-trial report wins
      probe_g_[site] = message.scalar;
      probe_drift_[site] = message.payload;
      ++probe_reports_;
      return;
    }
    case RuntimeMessage::Type::kStateReport: {
      if (message.epoch != epoch_) {  // fencing audit: must be unreachable
        ++audit_.stale_epoch_applied;
        return;
      }
      last_known_[site] = message.payload;
      if (grant_pending_[site]) {
        // Rejoin handshake complete: the granted site shipped fresh state.
        // Fold its data back into the estimate via a scheduled resync.
        grant_pending_[site] = false;
        ScheduleResync(config_.rejoin_resync_cycles);
      }
      if (phase_ != Phase::kCollecting) {
        // Same-round straggler (after a degraded completion) or the rejoin
        // handshake's fresh state: last-known is refreshed, nothing else.
        ++audit_.late_reports;
        if (telemetry_ != nullptr) {
          telemetry_->trace.Emit(TraceEventId::kLateReport, kCoordinatorId,
                                 {{"site", site}});
        }
        return;
      }
      if (!received_[site]) {
        received_[site] = true;
        collected_[site] = message.payload;
        ++received_count_;
      }
      if (received_count_ == num_sites_) FinishFullSync(false);  // clean
      return;
    }
    default:
      return;  // coordinator-originated types are not addressed to us
  }
}

bool CoordinatorNode::OnBarrierDeadlineMissed(int site) {
  SGM_CHECK(site >= 0 && site < num_sites_);
  if (!fd_.RecordMissedDeadline(site)) return false;
  // Quarantined: release its pending ack expectations so neither the
  // barrier loop nor the retransmission machinery waits on it. The TCP
  // session (if any) stays up — the laggard's eventual catch-up traffic
  // drives the ordinary rejoin-grant handshake through ObserveSite.
  if (reliable_ != nullptr && reliable_->IsLinkUp(site)) {
    reliable_->MarkLinkDown(site);
  }
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kSiteQuarantined, site,
                           {{"cycle", cycle_}});
  }
  return true;
}

void CoordinatorNode::OnBarrierDeadlineMet(int site) {
  SGM_CHECK(site >= 0 && site < num_sites_);
  fd_.RecordDeadlineMet(site);
}

void CoordinatorNode::RecordDegradedCycle(int missing_sites) {
  ++degraded_cycles_;
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kDegradedCycle, kCoordinatorId,
                           {{"cycle", cycle_}, {"missing", missing_sites}});
  }
}

void CoordinatorNode::OnQuiescent() {
  if (phase_ == Phase::kCollecting) {
    if (received_count_ == 0) {
      // The entire collection round was swallowed (e.g. the very first
      // request on a lossy network): go idle and retry shortly. The retry
      // opens a fresh cascade, so this tree ends here.
      phase_ = Phase::kIdle;
      CloseCycleSpan();
      ScheduleResync(config_.empty_collection_retry_cycles);
      return;
    }
    if (!AllLiveReported() && sync_retries_ < config_.max_sync_retries) {
      // Per-epoch sync deadline: re-request the live stragglers directly
      // (same epoch — this continues the round, it does not start one).
      ++sync_retries_;
      for (int site = 0; site < num_sites_; ++site) {
        if (received_[site] || !fd_.IsLive(site)) continue;
        ++audit_.sync_rerequests;
        if (telemetry_ != nullptr) {
          telemetry_->trace.Emit(TraceEventId::kSyncRerequest, kCoordinatorId,
                                 {{"epoch", epoch_},
                                  {"site", site},
                                  {"span", phase_span_}});
        }
        RuntimeMessage request;
        request.type = RuntimeMessage::Type::kFullStateRequest;
        request.from = kCoordinatorId;
        request.to = site;
        request.epoch = epoch_;
        request.span = phase_span_;  // same round, same span
        request.parent_span = cycle_span_;
        transport_->Send(std::move(request));
      }
      return;  // still collecting; the re-requests re-arm the transport
    }
    CompleteCollection();
    return;
  }
  if (phase_ != Phase::kProbing) return;
  // All first-trial drift reports for this alarm have arrived: form the HT
  // estimate and vet the alarm (Section 2.2's partial synchronization).
  // The estimator reweights over the live population — dead sites are not
  // part of the sample frame.
  const int live = std::max(1, fd_.live_count());
  Vector v_hat = e_;
  bool estimate_switched = false;
  bool ball_crosses = false;
  {
    ScopedTimer timer(ht_estimate_ns_);
    // Fold the buffered reports in site-id order — the sum is then a pure
    // function of the report set, not of the order the network delivered it.
    Vector probe_weighted_sum(e_.dim());
    for (int site = 0; site < num_sites_; ++site) {
      if (probe_g_[site] <= 0.0) continue;
      probe_weighted_sum.Axpy(1.0 / probe_g_[site], probe_drift_[site]);
    }
    v_hat.Axpy(1.0 / static_cast<double>(live), probe_weighted_sum);
    const double U = CurrentU();
    const double epsilon = std::min(BernsteinEpsilon(config_.delta, U),
                                    0.5 * epsilon_t_);
    estimate_switched =
        (function_->Value(v_hat) > config_.threshold) != believes_above_;
    ball_crosses = function_->BallCrossesThreshold(Ball(v_hat, epsilon),
                                                   config_.threshold);
  }
  if (estimate_switched || ball_crosses) {
    RequestFullState();
  } else {
    ResolvePartial(v_hat);
  }
}

}  // namespace sgm

#include "runtime/failure_detector.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"
#include "core/rng.h"
#include "obs/telemetry.h"

namespace sgm {

namespace {

constexpr long kNever = std::numeric_limits<long>::max();

}  // namespace

int HeartbeatIntervalCycles(int num_sites) {
  SGM_CHECK(num_sites > 0);
  // ⌊√N⌋ is exact in double for every int N; step up to ⌈√N⌉.
  long h = static_cast<long>(std::sqrt(static_cast<double>(num_sites)));
  while (h * h < num_sites) ++h;
  return static_cast<int>(h);
}

FailureDetector::FailureDetector(int num_sites,
                                 const FailureDetectorConfig& config)
    : config_(config),
      heartbeat_interval_(HeartbeatIntervalCycles(num_sites)),
      sites_(num_sites),
      due_(num_sites) {
  SGM_CHECK(num_sites > 0);
  SGM_CHECK(config.suspect_after_misses >= 1);
  SGM_CHECK(config.dead_after_misses > config.suspect_after_misses);
  SGM_CHECK(config.flap_death_threshold >= 2);
  SGM_CHECK(config.flap_window_cycles >= 1 && config.quarantine_cycles >= 0);
  SGM_CHECK(config.lagging_after_deadline_misses >= 1);
  SGM_CHECK(config.threshold_jitter >= 0.0 && config.threshold_jitter < 1.0);
  for (int site = 0; site < num_sites; ++site) {
    SiteState& s = sites_[site];
    if (config.threshold_jitter > 0.0) {
      Rng rng(DeriveSeed(config.jitter_seed, static_cast<std::uint64_t>(site)));
      const auto factor = [&rng, &config] {
        return 1.0 + config.threshold_jitter * (2.0 * rng.NextDouble() - 1.0);
      };
      s.suspect_after = std::max(
          1, static_cast<int>(std::lround(config.suspect_after_misses *
                                          factor())));
      s.dead_after = std::max(
          s.suspect_after + 1,
          static_cast<int>(std::lround(config.dead_after_misses * factor())));
      s.quarantine = std::max<long>(
          0, std::lround(config.quarantine_cycles * factor()));
      s.lagging_after = std::max(
          1, static_cast<int>(std::lround(
                 config.lagging_after_deadline_misses * factor())));
    } else {
      s.suspect_after = config.suspect_after_misses;
      s.dead_after = config.dead_after_misses;
      s.quarantine = config.quarantine_cycles;
      s.lagging_after = config.lagging_after_deadline_misses;
    }
    Schedule(site);
  }
  Recount();
}

void FailureDetector::Schedule(int site) {
  const SiteState& s = sites_[site];
  if (!IsLiveState(s.state)) {
    due_[site] = kNever;
    return;
  }
  const long h = heartbeat_interval_;
  due_[site] = s.last_heard_cycle + std::min(2 * h, s.suspect_after * h + 1);
  next_due_ = std::min(next_due_, due_[site]);
}

void FailureDetector::SetState(SiteState* site, State next) {
  live_count_ += static_cast<int>(IsLiveState(next)) -
                 static_cast<int>(IsLiveState(site->state));
  lagging_count_ += static_cast<int>(next == State::kLagging) -
                    static_cast<int>(site->state == State::kLagging);
  site->state = next;
}

void FailureDetector::Recount() {
  live_count_ = 0;
  lagging_count_ = 0;
  total_deaths_ = 0;
  for (const SiteState& s : sites_) {
    if (IsLiveState(s.state)) ++live_count_;
    if (s.state == State::kLagging) ++lagging_count_;
    total_deaths_ += s.deaths;
  }
}

/// Shared death bookkeeping (miss escalation and transport unreachability
/// reports converge here): death counters, flap detection over the recent
/// window, and the dead/quarantined trace events.
void FailureDetector::RecordDeath(int site) {
  SiteState& s = sites_[site];
  SetState(&s, State::kDead);
  ++s.deaths;
  ++total_deaths_;
  s.death_cycles.push_back(cycle_);
  const long horizon = cycle_ - config_.flap_window_cycles;
  s.death_cycles.erase(
      std::remove_if(s.death_cycles.begin(), s.death_cycles.end(),
                     [horizon](long c) { return c < horizon; }),
      s.death_cycles.end());
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kDead, site, {{"deaths", s.deaths}});
  }
  if (static_cast<int>(s.death_cycles.size()) >=
      config_.flap_death_threshold) {
    s.quarantine_until = cycle_ + s.quarantine;
    if (telemetry_ != nullptr) {
      telemetry_->trace.Emit(TraceEventId::kQuarantined, site,
                             {{"until_cycle", s.quarantine_until}});
    }
  }
}

void FailureDetector::Escalate(int site) {
  SiteState& s = sites_[site];
  if (s.state != State::kAlive && s.state != State::kSuspect) return;
  const long misses = cycle_ - s.last_heard_cycle;
  const long h = heartbeat_interval_;
  if (misses > s.dead_after * h) {
    RecordDeath(site);
  } else if (misses > s.suspect_after * h) {
    if (telemetry_ != nullptr && s.state != State::kSuspect) {
      telemetry_->trace.Emit(TraceEventId::kSuspect, site,
                             {{"misses", misses}});
    }
    SetState(&s, State::kSuspect);
  } else if (misses >= 2 * h && telemetry_ != nullptr) {
    // One silent beat is routine scheduling noise; two or more is a
    // trend worth a breadcrumb before the suspect threshold trips.
    telemetry_->trace.Emit(TraceEventId::kHeartbeatMiss, site,
                           {{"misses", misses}});
  }
}

void FailureDetector::BeginCycle(long cycle) {
  cycle_ = cycle;
  if (cycle < next_due_) return;
  long next = kNever;
  for (int site = 0; site < static_cast<int>(due_.size()); ++site) {
    if (due_[site] <= cycle) {
      Escalate(site);
      // A site that left the sample pool stays out of the pass until
      // CompleteRejoin or Restore brings it back.
      if (!IsLiveState(sites_[site].state)) due_[site] = kNever;
    }
    next = std::min(next, due_[site]);
  }
  next_due_ = next;
}

void FailureDetector::RecordAlive(int site) {
  SGM_CHECK(site >= 0 && site < static_cast<int>(sites_.size()));
  SiteState& s = sites_[site];
  s.last_heard_cycle = cycle_;
  if (s.state == State::kSuspect) SetState(&s, State::kAlive);
  // kDead / kRejoining: liveness alone does not revive — the rejoin
  // handshake must resync the site's estimate and Δv baseline first.
  Schedule(site);
}

void FailureDetector::ReportUnreachable(int site) {
  SGM_CHECK(site >= 0 && site < static_cast<int>(sites_.size()));
  SiteState& s = sites_[site];
  if (s.state == State::kDead || s.state == State::kRejoining) return;
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kUnreachable, site);
  }
  RecordDeath(site);
}

bool FailureDetector::RecordMissedDeadline(int site) {
  SGM_CHECK(site >= 0 && site < static_cast<int>(sites_.size()));
  SiteState& s = sites_[site];
  // Dead/rejoining sites are already out of the barrier population, and a
  // lagging one keeps its existing verdict; only live sites accrue misses.
  if (s.state != State::kAlive && s.state != State::kSuspect) return false;
  ++s.deadline_misses;
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kDeadlineMiss, site,
                           {{"misses", s.deadline_misses}});
  }
  if (s.deadline_misses < s.lagging_after) return false;
  SetState(&s, State::kLagging);
  s.lagging_since = cycle_;
  s.deadline_misses = 0;
  ++total_lagging_verdicts_;
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kLagging, site,
                           {{"since_cycle", s.lagging_since}});
  }
  return true;
}

void FailureDetector::RecordDeadlineMet(int site) {
  SGM_CHECK(site >= 0 && site < static_cast<int>(sites_.size()));
  sites_[site].deadline_misses = 0;
}

void FailureDetector::BeginRejoin(int site) {
  SGM_CHECK(site >= 0 && site < static_cast<int>(sites_.size()));
  SiteState& s = sites_[site];
  if (s.state == State::kDead || s.state == State::kLagging) {
    SetState(&s, State::kRejoining);
    if (telemetry_ != nullptr) {
      telemetry_->trace.Emit(TraceEventId::kRejoinBegin, site);
    }
  }
}

void FailureDetector::CompleteRejoin(int site) {
  SGM_CHECK(site >= 0 && site < static_cast<int>(sites_.size()));
  SiteState& s = sites_[site];
  if (s.state != State::kRejoining && s.state != State::kDead &&
      s.state != State::kLagging) {
    return;
  }
  if (s.lagging_since >= 0) {
    // The laggard caught up: close its staleness window. Everything it
    // served between the lagging verdict and now was up to this many
    // cycles behind the deployment.
    const long staleness = cycle_ - s.lagging_since;
    staleness_cycles_total_ += staleness;
    staleness_cycles_max_ = std::max(staleness_cycles_max_, staleness);
    s.lagging_since = -1;
    if (telemetry_ != nullptr) {
      telemetry_->trace.Emit(TraceEventId::kLagRecovered, site,
                             {{"staleness_cycles", staleness}});
    }
  }
  SetState(&s, State::kAlive);
  s.last_heard_cycle = cycle_;
  s.deadline_misses = 0;
  Schedule(site);
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kRejoinComplete, site);
  }
}

bool FailureDetector::IsQuarantined(int site) const {
  return sites_[site].quarantine_until >= cycle_;
}

std::vector<FailureDetector::SiteSnapshot> FailureDetector::Snapshot() const {
  std::vector<SiteSnapshot> out(sites_.size());
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const SiteState& s = sites_[i];
    out[i] = {s.state, s.last_heard_cycle, s.deaths, s.death_cycles,
              s.quarantine_until};
  }
  return out;
}

void FailureDetector::Restore(const std::vector<SiteSnapshot>& sites,
                              long cycle) {
  SGM_CHECK(sites.size() == sites_.size());
  cycle_ = cycle;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    SiteState& s = sites_[i];
    s.state = sites[i].state;
    s.last_heard_cycle = sites[i].last_heard_cycle;
    s.deaths = sites[i].deaths;
    s.death_cycles = sites[i].death_cycles;
    s.quarantine_until = sites[i].quarantine_until;
    s.deadline_misses = 0;
    // A site checkpointed mid-lag restarts its staleness clock here: the
    // pre-crash window is not durable, so it is under- rather than
    // over-counted.
    s.lagging_since = s.state == State::kLagging ? cycle : -1;
    Schedule(static_cast<int>(i));
  }
  Recount();
}

const char* ToString(FailureDetector::State state) {
  switch (state) {
    case FailureDetector::State::kAlive: return "alive";
    case FailureDetector::State::kSuspect: return "suspect";
    case FailureDetector::State::kDead: return "dead";
    case FailureDetector::State::kRejoining: return "rejoining";
    case FailureDetector::State::kLagging: return "lagging";
  }
  return "?";
}

}  // namespace sgm

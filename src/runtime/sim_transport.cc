#include "runtime/sim_transport.h"

#include <algorithm>

#include "core/check.h"
#include "obs/telemetry.h"
#include "runtime/serialization.h"

namespace sgm {

namespace {

bool AnyFaultConfigured(const SimTransportConfig& config) {
  return config.drop_probability > 0.0 || config.duplicate_probability > 0.0 ||
         config.max_delay_rounds > 0 || config.corrupt_probability > 0.0;
}

}  // namespace

SimTransport::SimTransport(Transport* inner, const SimTransportConfig& config)
    : inner_(inner), config_(config) {
  SGM_CHECK(inner != nullptr);
  SGM_CHECK(config.drop_probability >= 0.0 && config.drop_probability < 1.0);
  SGM_CHECK(config.duplicate_probability >= 0.0 &&
            config.duplicate_probability <= 1.0);
  SGM_CHECK(config.max_delay_rounds >= 0);
  SGM_CHECK(config.corrupt_probability >= 0.0 &&
            config.corrupt_probability < 1.0);
  if (config.fault_coordinator_links && AnyFaultConfigured(config)) {
    SGM_CHECK_MSG(config.num_sites > 0,
                  "broadcast faulting needs num_sites to expand per link");
  }
}

bool SimTransport::FaultsApplyTo(const RuntimeMessage& message) const {
  if (!AnyFaultConfigured(config_)) return false;  // pure pass-through
  if (message.from == kCoordinatorId) return config_.fault_coordinator_links;
  return true;
}

Rng& SimTransport::LinkRng(int site) {
  auto it = link_rngs_.find(site);
  if (it == link_rngs_.end()) {
    it = link_rngs_
             .emplace(site, Rng(DeriveSeed(config_.seed,
                                           static_cast<std::uint64_t>(site))))
             .first;
  }
  return it->second;
}

void SimTransport::CrashSite(int site) {
  SGM_CHECK(site >= 0);
  if (static_cast<std::size_t>(site) >= crashed_.size()) {
    crashed_.resize(site + 1, false);
  }
  crashed_[site] = true;
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kSiteCrash, site);
  }
}

void SimTransport::RecoverSite(int site) {
  if (site >= 0 && static_cast<std::size_t>(site) < crashed_.size()) {
    crashed_[site] = false;
    if (telemetry_ != nullptr) {
      telemetry_->trace.Emit(TraceEventId::kSiteRecover, site);
    }
  }
}

bool SimTransport::IsCrashed(int site) const {
  return site >= 0 && static_cast<std::size_t>(site) < crashed_.size() &&
         crashed_[site];
}

void SimTransport::Forward(const RuntimeMessage& message, int delay_rounds) {
  if (delay_rounds <= 0) {
    inner_->Send(message);
    return;
  }
  ++delayed_messages_;
  pending_.push_back(Pending{round_ + delay_rounds, message});
}

void SimTransport::Admit(const RuntimeMessage& message, int link) {
  Rng& rng = LinkRng(link);
  // Fixed draw order (drop, delay, duplicate) keeps replays stable.
  if (rng.NextBernoulli(config_.drop_probability)) {
    ++dropped_messages_;
    if (telemetry_ != nullptr) {
      telemetry_->trace.Emit(
          TraceEventId::kDrop, link,
          {{"type", RuntimeMessage::TypeName(message.type)}});
    }
    return;
  }
  // The corrupt draw is guarded on the probability so that configurations
  // without corruption consume the exact historical per-link draw sequence
  // (seeded replays of old fault schedules stay byte-identical).
  if (config_.corrupt_probability > 0.0 &&
      rng.NextBernoulli(config_.corrupt_probability)) {
    std::vector<std::uint8_t> wire = EncodeMessage(message);
    const std::uint64_t bit = rng.NextBounded(wire.size() * 8);
    wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ++corrupted_messages_;
    if (telemetry_ != nullptr) {
      telemetry_->trace.Emit(
          TraceEventId::kCorrupt, link,
          {{"type", RuntimeMessage::TypeName(message.type)}});
    }
    Result<RuntimeMessage> decoded = DecodeMessage(wire);
    if (!decoded.ok()) return;  // CRC caught the flip: a detected loss
    // Undetected corruption (unreachable under v4's frame CRC, kept for
    // checksum-less formats): the mangled frame is what arrives.
    Forward(std::move(decoded).ValueOrDie(), 0);
    return;
  }
  const int delay =
      config_.max_delay_rounds > 0
          ? static_cast<int>(rng.NextBounded(
                static_cast<std::uint64_t>(config_.max_delay_rounds) + 1))
          : 0;
  const bool duplicated = rng.NextBernoulli(config_.duplicate_probability);
  if (delay > 0 && telemetry_ != nullptr) {
    telemetry_->trace.Emit(
        TraceEventId::kDelay, link,
        {{"type", RuntimeMessage::TypeName(message.type)},
         {"rounds", delay}});
  }
  Forward(message, delay);
  if (duplicated) {
    // A network duplicate hits the wire again: it appears in the transport
    // totals but not in the paper-comparable figures (the protocol only
    // transmitted once).
    ++duplicated_messages_;
    ++transport_messages_sent_;
    transport_bytes_sent_ += WireBytes(message);
    if (telemetry_ != nullptr) {
      telemetry_->trace.Emit(
          TraceEventId::kDuplicate, link,
          {{"type", RuntimeMessage::TypeName(message.type)}});
    }
    Forward(message, delay);
  }
}

void SimTransport::Send(const RuntimeMessage& message) {
  if (IsCrashed(message.from)) return;  // a crashed site never transmits

  const double bytes = WireBytes(message);
  ++transport_messages_sent_;
  transport_bytes_sent_ += bytes;
  if (message.counts_as_protocol_traffic()) {
    ++messages_sent_;
    if (message.from != kCoordinatorId) ++site_messages_sent_;
    bytes_sent_ += bytes;
  }

  if (!FaultsApplyTo(message)) {
    // Unicasts to a crashed site still vanish; broadcasts pass through
    // unexpanded and the driver skips crashed destinations on fan-out.
    if (message.to >= 0 && IsCrashed(message.to)) {
      ++dropped_messages_;
      return;
    }
    inner_->Send(message);
    return;
  }

  if (message.to == kBroadcastId) {
    // Per-link broadcast faulting: one transmission (accounted above), but
    // each destination link runs its own lottery over its own copy.
    for (int site = 0; site < config_.num_sites; ++site) {
      if (IsCrashed(site)) continue;
      RuntimeMessage copy = message;
      copy.to = site;
      Admit(copy, site);
    }
    return;
  }

  if (message.to >= 0 && IsCrashed(message.to)) {
    ++dropped_messages_;
    return;
  }
  const int link = message.from == kCoordinatorId ? message.to : message.from;
  SGM_CHECK(link >= 0);
  Admit(message, link);
}

void SimTransport::PublishMetrics(MetricRegistry* registry) const {
  if (registry == nullptr) return;
  registry->GetCounter("transport.paper_messages")->Set(messages_sent_);
  registry->GetCounter("transport.paper_site_messages")
      ->Set(site_messages_sent_);
  registry->GetGauge("transport.paper_bytes")->Set(bytes_sent_);
  registry->GetCounter("transport.total_messages")
      ->Set(transport_messages_sent_);
  registry->GetGauge("transport.total_bytes")->Set(transport_bytes_sent_);
  registry->GetCounter("transport.faults_dropped")->Set(dropped_messages_);
  registry->GetCounter("transport.faults_duplicated")
      ->Set(duplicated_messages_);
  registry->GetCounter("transport.faults_delayed")->Set(delayed_messages_);
  registry->GetCounter("transport.faults_corrupted")
      ->Set(corrupted_messages_);
}

void SimTransport::AdvanceRound() {
  ++round_;
  // Stable partition preserves send order among messages due the same round.
  std::vector<Pending> still_pending;
  still_pending.reserve(pending_.size());
  for (Pending& p : pending_) {
    if (p.due_round <= round_) {
      inner_->Send(p.message);
    } else {
      still_pending.push_back(std::move(p));
    }
  }
  pending_ = std::move(still_pending);
}

}  // namespace sgm

#include "runtime/chaos.h"

#include <chrono>
#include <thread>

#include "core/check.h"
#include "obs/telemetry.h"

namespace sgm {

ChaosSocketTransport::ChaosSocketTransport(Transport* next,
                                           const ChaosInjectionConfig& config,
                                           Telemetry* telemetry, int actor)
    : next_(next),
      config_(config),
      telemetry_(telemetry),
      actor_(actor),
      rng_(config.seed),
      // Start past the spacing gate so early-session faults are possible.
      sends_since_fault_(config.min_sends_between_faults) {
  SGM_CHECK(next != nullptr);
  SGM_CHECK(config.min_sends_between_faults >= 1);
}

void ChaosSocketTransport::SetFaultHooks(std::function<void()> reset,
                                         std::function<void()> half_open) {
  reset_hook_ = std::move(reset);
  half_open_hook_ = std::move(half_open);
}

void ChaosSocketTransport::Send(const RuntimeMessage& message) {
  ++sends_;
  // The draws happen unconditionally so the fault schedule is a pure
  // function of (seed, send index) — the spacing gate masks fault *effects*
  // without shifting the random stream.
  const bool want_reset = rng_.NextBernoulli(config_.reset_probability);
  const bool want_stall = rng_.NextBernoulli(config_.stall_probability);
  const bool want_half_open =
      rng_.NextBernoulli(config_.half_open_probability);
  const bool gate_open =
      ++sends_since_fault_ > config_.min_sends_between_faults;

  if (gate_open && want_reset) {
    ++resets_;
    sends_since_fault_ = 0;
    if (telemetry_ != nullptr) {
      telemetry_->trace.Emit(TraceEventId::kChaosReset, actor_);
    }
    if (reset_hook_) reset_hook_();
  } else if (gate_open && want_half_open) {
    ++half_opens_;
    sends_since_fault_ = 0;
    if (telemetry_ != nullptr) {
      telemetry_->trace.Emit(TraceEventId::kChaosHalfOpen, actor_);
    }
    if (half_open_hook_) half_open_hook_();
  } else if (gate_open && want_stall) {
    ++stalls_;
    sends_since_fault_ = 0;
    if (telemetry_ != nullptr) {
      telemetry_->trace.Emit(TraceEventId::kChaosStall, actor_,
                             {{"ms", static_cast<std::int64_t>(
                                         config_.stall_ms)}});
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(config_.stall_ms));
  }
  // The triggering message is forwarded into whatever the fault left
  // behind: after a reset or half-open its write fails, which is the point.
  next_->Send(message);
}

}  // namespace sgm

#ifndef SGM_RUNTIME_SOCKET_RETRY_H_
#define SGM_RUNTIME_SOCKET_RETRY_H_

#include <algorithm>
#include <cstdint>

#include "core/rng.h"

namespace sgm {

/// Bounded-retry / jittered-backoff policy for TCP connection establishment.
///
/// One policy serves both the first connect (the coordinator may not be
/// listening yet — start order must not matter) and every reconnect after a
/// peer loss (the coordinator may be mid-restart). The jitter is seeded and
/// deterministic per site, so a fleet of reconnecting site processes does
/// not stampede the freshly restarted coordinator in lockstep, yet a replay
/// of the same deployment seeds reproduces the same retry schedule.
struct SocketRetryConfig {
  /// Connection attempts before giving up (≥ 1). The overall give-up
  /// horizon is the sum of the backoff series, ≈ attempts · max_backoff_ms
  /// once the exponential curve saturates.
  int max_attempts = 60;
  /// Delay after the first failed attempt; doubles per attempt.
  long base_backoff_ms = 5;
  /// Exponential ceiling. With the defaults the budget is a little over
  /// 20 s — enough for a coordinator restart-from-checkpoint.
  long max_backoff_ms = 500;
  /// Seed of the jitter stream (salted with the site id by the caller so
  /// sites decorrelate). Jitter draws uniformly from [delay/2, delay].
  std::uint64_t jitter_seed = 17;
};

/// Backoff before retry number `attempt` (1-based: the delay after the
/// attempt-th failure): exponential in the attempt, capped, then jittered
/// into [delay/2, delay] by one SplitMix64 step over `*state`, the
/// deterministic jitter stream. Pure given (config, attempt, *state).
inline long SocketRetryDelayMs(const SocketRetryConfig& config, int attempt,
                               std::uint64_t* state) {
  long delay = config.base_backoff_ms;
  for (int i = 1; i < attempt && delay < config.max_backoff_ms; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, config.max_backoff_ms);
  if (delay <= 1) return delay;
  const long half = delay / 2;
  return half + static_cast<long>(SplitMix64(state) %
                                  static_cast<std::uint64_t>(delay - half + 1));
}

}  // namespace sgm

#endif  // SGM_RUNTIME_SOCKET_RETRY_H_

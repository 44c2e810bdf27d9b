#ifndef SGM_RUNTIME_CHAOS_H_
#define SGM_RUNTIME_CHAOS_H_

#include <cstdint>
#include <functional>

#include "core/rng.h"
#include "runtime/transport.h"

namespace sgm {

struct Telemetry;

/// Seeded network-fault schedule for the socket runtime. All probabilities
/// are per Send() draw from one deterministic stream, so the same seed
/// reproduces the same fault sequence relative to the node's own send
/// pattern (the chaos layer sits between the site node and its socket
/// transport — exactly where a real network would misbehave).
struct ChaosInjectionConfig {
  std::uint64_t seed = 1;
  /// Full connection reset (both directions die; the peer sees EOF, the
  /// local end sees write failures) — a dropped TCP connection.
  double reset_probability = 0.0;
  /// Write stall: the send blocks for stall_ms before proceeding — a
  /// congested or scheduling-starved path.
  double stall_probability = 0.0;
  long stall_ms = 10;
  /// Half-open partition: the local write direction dies but reads keep
  /// flowing — the asymmetric failure TCP keepalive horror stories are
  /// made of. The local end discovers it only through write errors.
  double half_open_probability = 0.0;
  /// Minimum fault-free sends between two injected faults, so sessions
  /// always make some progress and the run terminates.
  int min_sends_between_faults = 8;

  bool enabled() const {
    return reset_probability > 0.0 || stall_probability > 0.0 ||
           half_open_probability > 0.0;
  }
};

/// Straggler-heavy chaos profile: frequent long write stalls, no
/// connection faults. Against a coordinator running with a barrier
/// deadline this keeps driving the lagging → quarantined → rejoined
/// machinery without ever tearing the session down — the pure-slowness
/// failure mode the deadline path exists for. `stall_ms` should exceed the
/// coordinator's barrier_deadline_ms to make misses certain rather than
/// scheduling-dependent.
inline ChaosInjectionConfig StallHeavyChaosProfile(std::uint64_t seed,
                                                   long stall_ms) {
  ChaosInjectionConfig config;
  config.seed = seed;
  config.stall_probability = 0.25;
  config.stall_ms = stall_ms;
  config.min_sends_between_faults = 4;
  return config;
}

/// Transport decorator that injects connection faults on a seeded schedule.
///
/// The decorator itself is socket-agnostic: tearing a connection down is
/// the owner's business (SiteClient knows its fd), so faults fire through
/// injected hooks. A reset/half-open hook runs *before* the triggering
/// message is forwarded — the message hits the already-broken connection,
/// its write fails, and the full detect → reconnect → rejoin path runs for
/// real. Stalls simply sleep on the sender's thread.
///
/// Counters are plain longs guarded by nothing: the decorator lives on a
/// single-threaded SiteClient send path (reads from other threads are for
/// post-run assertions only, after the loop has exited).
class ChaosSocketTransport final : public Transport {
 public:
  ChaosSocketTransport(Transport* next, const ChaosInjectionConfig& config,
                       Telemetry* telemetry = nullptr, int actor = -1);

  /// Installs the fault actions. Either may be empty (that fault class is
  /// then counted but otherwise inert).
  void SetFaultHooks(std::function<void()> reset,
                     std::function<void()> half_open);

  void Send(const RuntimeMessage& message) override;

  long resets_injected() const { return resets_; }
  long stalls_injected() const { return stalls_; }
  long half_opens_injected() const { return half_opens_; }
  long sends_seen() const { return sends_; }

 private:
  Transport* next_;
  ChaosInjectionConfig config_;
  Telemetry* telemetry_;
  int actor_;
  Rng rng_;
  std::function<void()> reset_hook_;
  std::function<void()> half_open_hook_;
  long sends_ = 0;
  long sends_since_fault_ = 0;
  long resets_ = 0;
  long stalls_ = 0;
  long half_opens_ = 0;
};

}  // namespace sgm

#endif  // SGM_RUNTIME_CHAOS_H_

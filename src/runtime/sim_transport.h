#ifndef SGM_RUNTIME_SIM_TRANSPORT_H_
#define SGM_RUNTIME_SIM_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/rng.h"
#include "obs/metric_registry.h"
#include "runtime/transport.h"

namespace sgm {

struct Telemetry;

/// Fault model of a SimTransport. All probabilities are per message per
/// link; every stochastic decision draws from a per-link stream derived from
/// the single `seed`, so one seed replays the exact fault schedule and
/// faulting one link never perturbs another link's randomness.
struct SimTransportConfig {
  std::uint64_t seed = 1;

  /// Probability that a message is silently lost on its link.
  double drop_probability = 0.0;

  /// Probability that a message is delivered twice (the duplicate follows
  /// the original immediately; real networks duplicate on retransmission).
  double duplicate_probability = 0.0;

  /// Maximum delivery delay in *rounds* (the driver advances one round each
  /// time its queue drains). Each message draws a uniform delay in
  /// [0, max_delay_rounds]; unequal delays reorder messages on the wire.
  int max_delay_rounds = 0;

  /// Probability that a message's encoded frame suffers a single bit flip
  /// on the link. The flip goes through the real wire codec: the frame is
  /// encoded, mangled, and re-decoded — the CRC32C trailer detects every
  /// single-bit flip, so a corrupted frame becomes a *detected* loss
  /// (counted separately from drops, plus the decoder's
  /// `serialization.corrupt_frames` audit counter).
  double corrupt_probability = 0.0;

  /// When false, only site-originated traffic is subject to faults —
  /// coordinator broadcasts/unicasts pass through untouched. This models
  /// the common deployment where the downlink is reliable (and matches the
  /// legacy FaultyHarness the stress tests grew out of).
  bool fault_coordinator_links = true;

  /// Number of sites; required (> 0) whenever fault_coordinator_links is
  /// set, so broadcast faults can be decided per destination link.
  int num_sites = 0;
};

/// Deterministic fault-injecting decorator over any Transport.
///
/// SimTransport sits between the protocol nodes and an inner delivery
/// transport (typically the InMemoryBus a driver drains). Every Send() is
/// subjected to seeded per-link faults — drop, duplication, bounded delay
/// (which reorders), and site crashes — and the survivors are forwarded to
/// the inner transport, immediately or after the drawn number of rounds.
///
/// Determinism contract: given the same config (seed included) and the same
/// sequence of Send/AdvanceRound/CrashSite/RecoverSite calls, the inner
/// transport observes the identical message sequence. Per-link Rng streams
/// are derived via DeriveSeed(seed, link), keyed by the site-side endpoint
/// of the link (site i ↔ coordinator traffic shares stream i).
///
/// Accounting mirrors InMemoryBus at the *sender* side: a message is counted
/// when transmitted (even if later dropped — the sender paid for it), a
/// broadcast counts once, and duplicates count as the extra transmissions
/// they are. With faults off the counters match an InMemoryBus handling the
/// same traffic exactly; the stress harness asserts this parity.
class SimTransport final : public Transport {
 public:
  /// `inner` is not owned and must outlive the SimTransport.
  SimTransport(Transport* inner, const SimTransportConfig& config);

  /// Optional observability sink (nullable, not owned): injected faults and
  /// crash/recover transitions are traced as `fault` category events. The
  /// fault lottery itself never consults telemetry, so traced and untraced
  /// runs of one seed inject the identical schedule.
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

  void Send(const RuntimeMessage& message) override;
  /// False exactly when faults apply to `message`: a faulted broadcast is
  /// readdressed into one copy per site, each with its own fate.
  bool DeliversWhole(const RuntimeMessage& message) const override {
    return !FaultsApplyTo(message);
  }

  /// Advances the delivery clock one round and forwards every held message
  /// whose delay has expired (in send order within a round).
  void AdvanceRound();

  /// True while any delayed message is still held (the driver must keep
  /// advancing rounds before declaring the network quiescent — delays are
  /// bounded, not losses).
  bool HasPending() const { return !pending_.empty(); }

  /// Crashes a site: traffic from it is dropped at send, unicasts to it are
  /// dropped, and its copies of faulted broadcasts are suppressed. Drivers
  /// should also stop feeding observations to a crashed site.
  void CrashSite(int site);
  /// Recovers a crashed site (its state is whatever it held at crash time;
  /// the protocol's degraded-sync machinery re-converges it).
  void RecoverSite(int site);
  bool IsCrashed(int site) const;

  // Sender-side accounting (InMemoryBus-compatible when faults are off).
  // Paper-comparable family: original protocol data only — reliability
  // control messages, retransmissions and fault-injected duplicates are
  // excluded (they land in the transport totals below).
  long messages_sent() const { return messages_sent_; }
  long site_messages_sent() const { return site_messages_sent_; }
  double bytes_sent() const { return bytes_sent_; }

  // Transport totals: every transmission that hit the wire, duplicates and
  // control traffic included.
  long transport_messages_sent() const { return transport_messages_sent_; }
  double transport_bytes_sent() const { return transport_bytes_sent_; }

  // Fault statistics.
  long dropped_messages() const { return dropped_messages_; }
  long duplicated_messages() const { return duplicated_messages_; }
  long delayed_messages() const { return delayed_messages_; }
  long corrupted_messages() const { return corrupted_messages_; }

  /// Mirrors both accounting families and the fault statistics into
  /// `registry`: paper-comparable under `transport.paper_*`, wire totals
  /// under `transport.total_*`, faults under `transport.faults_*`.
  void PublishMetrics(MetricRegistry* registry);

 private:
  struct Pending {
    long due_round;
    RuntimeMessage message;
  };

  /// PublishMetrics' rows, read from the counters below.
  static MetricRows<SimTransport> Rows();
  bool FaultsApplyTo(const RuntimeMessage& message) const;
  Rng& LinkRng(int site);
  /// Runs the drop/duplicate/delay lottery for one message on one link and
  /// either forwards it (now or later) or drops it.
  void Admit(const RuntimeMessage& message, int link);
  void Forward(const RuntimeMessage& message, int delay_rounds);

  Transport* inner_;
  SimTransportConfig config_;
  Telemetry* telemetry_ = nullptr;
  std::map<int, Rng> link_rngs_;
  std::vector<bool> crashed_;

  std::vector<Pending> pending_;  ///< held messages, send order preserved
  long round_ = 0;

  long messages_sent_ = 0;
  long site_messages_sent_ = 0;
  double bytes_sent_ = 0.0;
  long transport_messages_sent_ = 0;
  double transport_bytes_sent_ = 0.0;
  long dropped_messages_ = 0;
  long duplicated_messages_ = 0;
  long delayed_messages_ = 0;
  long corrupted_messages_ = 0;
  MetricRows<SimTransport> rows_ = Rows();
};

}  // namespace sgm

#endif  // SGM_RUNTIME_SIM_TRANSPORT_H_

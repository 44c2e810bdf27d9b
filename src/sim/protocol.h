#ifndef SGM_SIM_PROTOCOL_H_
#define SGM_SIM_PROTOCOL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/vector.h"
#include "estimators/sgm_rules.h"
#include "functions/monitored_function.h"
#include "sim/metrics.h"

namespace sgm {

struct Telemetry;
class Histogram;

/// What happened during one execution of a protocol's monitoring (and
/// possibly synchronization) phase.
struct CycleOutcome {
  bool local_alarm = false;        ///< some monitored site raised a violation
  bool full_sync = false;          ///< a full synchronization took place
  bool partial_resolved = false;   ///< alarm resolved via the sampled probe
  bool resolved_1d = false;        ///< alarm resolved via 1-d distances only
};

/// A distributed threshold-tracking protocol under simulation.
///
/// The simulator is single-process: each cycle the protocol object receives
/// every site's true local vector and *plays both tiers honestly* — it may
/// only act on information a real coordinator/site would have, and it must
/// account every message it would have sent through the Metrics object.
/// (E.g. SGM reads only the sampled sites' drifts when forming its estimate,
/// even though all vectors are in memory.)
class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual std::string name() const = 0;

  /// The initialization phase: a first full synchronization triggered by the
  /// query itself (not by a violation).
  virtual void Initialize(const std::vector<Vector>& local_vectors,
                          Metrics* metrics) = 0;

  /// One monitoring phase after an update cycle.
  virtual CycleOutcome OnCycle(const std::vector<Vector>& local_vectors,
                               Metrics* metrics) = 0;

  /// The coordinator's current answer to "is f(v(t)) above T?".
  virtual bool BelievesAbove() const = 0;

  /// The protocol's private function instance (reference-based functions
  /// re-anchor at this protocol's own synchronizations); the ground-truth
  /// oracle evaluates through it.
  virtual const MonitoredFunction& function() const = 0;

  virtual double threshold() const = 0;
};

/// Shared two-tier machinery: the coordinator-side estimate vector e(t), the
/// per-site snapshots v_i(t_s), the drift computation, the adaptive drift cap
/// U(t), the certified-cooldown clock, and the full-synchronization
/// procedure with honest accounting and oracle-side FP classification.
class ProtocolBase : public Protocol {
 public:
  /// `function` is cloned; `max_step_norm` feeds the U(t) policy
  /// (U = max_step_norm · cycles-since-sync, the Example-3 pattern).
  ProtocolBase(const MonitoredFunction& function, double threshold,
               double max_step_norm);

  void Initialize(const std::vector<Vector>& local_vectors,
                  Metrics* metrics) override;
  CycleOutcome OnCycle(const std::vector<Vector>& local_vectors,
                       Metrics* metrics) final;

  bool BelievesAbove() const override { return believes_above_; }
  const MonitoredFunction& function() const override { return *function_; }
  double threshold() const override { return threshold_; }

  int num_sites() const { return num_sites_; }
  std::size_t dim() const { return dim_; }
  const Vector& estimate() const { return e_; }
  long cycles_since_sync() const { return cycles_since_sync_; }

  /// Caps U(t) at an a-priori bound on ‖Δv_i‖ (e.g. windowed streams can
  /// never drift beyond √2·window, Section 3's "Guidance for setting U").
  /// Default: no cap (pure per-cycle accumulation).
  void set_drift_norm_cap(double cap);

  /// Minimum distance of e from the threshold surface, recomputed at every
  /// synchronization (the ε_T of Figure 5 / Lemma 3).
  double epsilon_T() const { return epsilon_t_; }

  /// Optional observability sink (nullable, not owned): cycle outcomes are
  /// traced as protocol events (the simulator plays both tiers, so events
  /// carry the coordinator actor), and the monitoring/sync phases feed
  /// latency histograms. Paper-comparable Metrics accounting is untouched.
  void set_telemetry(Telemetry* telemetry);

 protected:
  /// Protocol-specific monitoring phase; the base increments the sync clock
  /// before dispatching here.
  virtual CycleOutcome MonitorCycle(const std::vector<Vector>& local_vectors,
                                    Metrics* metrics) = 0;

  /// Hook invoked at the end of every full synchronization (including the
  /// initializing one) so subclasses can refresh derived state (safe zones,
  /// predictors, ε_T ...).
  virtual void AfterSync(const std::vector<Vector>& local_vectors,
                         Metrics* metrics);

  /// Δv_i(t) = v_i(t) − v_i(t_s).
  Vector Drift(int site, const std::vector<Vector>& local_vectors) const;
  /// The same Δv_i(t) written into `*out`, whose buffer a per-site loop
  /// reuses instead of allocating one vector per site.
  void Drift(int site, const std::vector<Vector>& local_vectors,
             Vector* out) const;

  /// U(t) for this cycle (estimators/sgm_rules.h's DriftBoundU).
  double CurrentU() const {
    return DriftBoundU(max_step_norm_, cycles_since_sync_, drift_norm_cap_,
                       epsilon_t_);
  }

  /// Certified cooldown: true while an earlier resolution's mute covers
  /// this cycle, so no site monitors.
  bool Muted() const { return absolute_cycle_ <= muted_until_cycle_; }
  /// Mutes the next `cycles` cycles and accounts the coordinator's
  /// one-scalar announcement; no-op unless `cycles` > 0.
  void Mute(long cycles, Metrics* metrics);

  /// Executes a full synchronization: collects the `num_sites −
  /// already_collected` outstanding local vectors, classifies the decision
  /// as true-crossing or FP against the oracle, recomputes and broadcasts e,
  /// and re-anchors the function. Returns true when the sync corresponded to
  /// a true threshold crossing.
  bool FullSync(const std::vector<Vector>& local_vectors, Metrics* metrics,
                int already_collected);

  std::unique_ptr<MonitoredFunction> function_;
  double threshold_;
  double max_step_norm_;
  double drift_norm_cap_;
  double epsilon_t_ = 0.0;

  int num_sites_ = 0;
  std::size_t dim_ = 0;
  Vector e_;
  std::vector<Vector> synced_locals_;
  bool believes_above_ = false;
  long cycles_since_sync_ = 0;
  bool initialized_ = false;

  Telemetry* telemetry_ = nullptr;
  /// Cached latency histograms; nullptr when telemetry is off, which
  /// disables the profiling scopes entirely (no clock reads).
  Histogram* monitor_cycle_ns_ = nullptr;
  Histogram* full_sync_ns_ = nullptr;
  /// Absolute update-cycle counter (never reset by syncs): the clock of the
  /// certified cooldown and the one stamped on this protocol's trace events.
  long absolute_cycle_ = 0;
  long muted_until_cycle_ = -1;  ///< last muted absolute cycle
  /// Alarm cycles in a row up to the previous cycle that no full sync
  /// ended: the count of the consecutive-alarm re-anchoring rule.
  int alarm_streak_ = 0;

 private:
  /// Adopts `mean` as e, broadcasts it and re-anchors v_i(t_s), belief, ε_T
  /// and the sync clock (Initialize and FullSync account the collection).
  void Anchor(const std::vector<Vector>& local_vectors, Vector mean,
              Metrics* metrics);
};

}  // namespace sgm

#endif  // SGM_SIM_PROTOCOL_H_

#ifndef SGM_OBS_TRACE_H_
#define SGM_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace sgm {

class FlightRecorder;

// ── Head-based trace sampling ────────────────────────────────────────────
//
// The coordinator decides, per root span (one sync cascade), whether the
// cascade is traced, and carries the decision inside the span id itself:
// an unsampled cascade's spans have kSpanUnsampledBit set. Sites echo span
// ids verbatim, so the decision propagates across processes with zero new
// wire fields and zero frame-size change. TraceLog strips the bit before
// anything is recorded, so written traces always show the raw minted ids.

/// Tag bit marking a span id as belonging to an unsampled cascade. Bit 62
/// keeps tagged ids positive (span ids are small minted counters, so the
/// payload bits never collide with the tag).
constexpr std::int64_t kSpanUnsampledBit = std::int64_t{1} << 62;

/// The raw minted span id, with any sampling tag removed.
constexpr std::int64_t SpanId(std::int64_t span) {
  return span & ~kSpanUnsampledBit;
}

/// True when the span carries the unsampled tag.
constexpr bool SpanUnsampled(std::int64_t span) {
  return (span & kSpanUnsampledBit) != 0;
}

/// The coordinator's deterministic per-cascade sampling decision: true ⇒
/// the cascade rooted at `root_span` is traced. Seeded (same seed + rate →
/// same decisions, the determinism contract), rate 1.0 ⇒ always true and
/// 0.0 ⇒ always false.
bool TraceSampleDecision(std::uint64_t seed, std::int64_t root_span,
                         double rate);

/// Every event a conforming trace may contain: one value per row of the
/// catalog in trace.cc, which gives each its category, name, required
/// argument keys and sampling class. Emitting by id costs no string and no
/// lookup, so a sampled-out event is nearly free. To add an event, add the
/// value here, its row in trace.cc (same position) and its row in the
/// docs/OBSERVABILITY.md catalog.
enum class TraceEventId : std::uint8_t {
  // Protocol lifecycle.
  kSyncCycleBegin,
  kLocalAlarm,
  kProbeBegin,
  kPartialResolution,
  kOneDResolution,
  kFullSyncBegin,
  kFullSyncComplete,
  kSyncRerequest,
  kEpochBump,
  kAnchorApplied,
  kEpochGap,
  kStaleEpochDrop,
  kLateReport,
  // Reliability layer.
  kHeartbeat,
  kRejoinRequest,
  kRejoinGrant,
  kRetransmit,
  kGiveUp,
  kDuplicateSuppressed,
  kQueueEvict,
  // Failure detector.
  kHeartbeatMiss,
  kSuspect,
  kDead,
  kUnreachable,
  kQuarantined,
  kRejoinBegin,
  kRejoinComplete,
  kDeadlineMiss,
  kLagging,
  kLagRecovered,
  // Transport cost attribution, audit, alerts.
  kMsgSend,
  kBoundViolation,
  kAlertRaised,
  // Injected faults.
  kSiteCrash,
  kSiteRecover,
  kDrop,
  kDuplicate,
  kDelay,
  kCorrupt,
  kCoordinatorCrash,
  // Crash recovery.
  kCheckpointWrite,
  kRecoveryBegin,
  kRecoveryComplete,
  kSnapshotFallback,
  kWalTornTail,
  // Deadline barriers and lag quarantine.
  kBarrierSlow,
  kBarrierDeadline,
  kDegradedCycle,
  kSiteQuarantined,
  // Socket sessions and injected network chaos.
  kSiteHello,
  kSiteRehello,
  kSiteDisconnect,
  kConnectionLost,
  kReconnect,
  kChaosReset,
  kChaosHalfOpen,
  kChaosStall,
  // Run markers.
  kRunBegin,
  kCellBegin,
};

/// Number of TraceEventId values (ids are 0 .. kTraceEventCount - 1). It
/// names the last value: move it when adding one after kCellBegin (the
/// catalog's static_assert fails until it matches).
constexpr std::size_t kTraceEventCount =
    static_cast<std::size_t>(TraceEventId::kCellBegin) + 1;

/// The catalog's category and name of `id`.
const char* TraceEventCategory(TraceEventId id);
const char* TraceEventName(TraceEventId id);

/// One structured argument of a trace event. Values are integers, doubles
/// or short strings; keys are lower_snake identifiers.
struct TraceArg {
  enum class Kind { kInt, kDouble, kString };

  TraceArg(std::string k, std::int64_t v)
      : key(std::move(k)), kind(Kind::kInt), int_value(v) {}
  TraceArg(std::string k, int v)
      : TraceArg(std::move(k), static_cast<std::int64_t>(v)) {}
  TraceArg(std::string k, double v)
      : key(std::move(k)), kind(Kind::kDouble), double_value(v) {}
  TraceArg(std::string k, std::string v)
      : key(std::move(k)), kind(Kind::kString), string_value(std::move(v)) {}
  TraceArg(std::string k, const char* v)
      : TraceArg(std::move(k), std::string(v)) {}

  std::string key;
  Kind kind;
  std::int64_t int_value = 0;
  double double_value = 0.0;
  std::string string_value;
};

/// One protocol-lifecycle event.
///
/// Timestamps are *logical*: `ts` is the event's position in the run (a
/// process-wide monotone index, incremented per emit) and `cycle` the update
/// cycle it occurred in. No wall clock enters a trace, so a replay from the
/// same seed reproduces the file byte-for-byte (the determinism contract
/// dst_stress and the CI trace job rely on).
struct TraceEvent {
  long ts = 0;       ///< monotone per-log event index (logical time)
  long cycle = 0;    ///< update cycle the event belongs to
  std::string cat;   ///< "protocol" | "reliability" | "failure" | "fault" | ...
  std::string name;  ///< event type, see docs/OBSERVABILITY.md catalog
  int actor = 0;     ///< site id, or kCoordinatorId (-1) for the coordinator
  /// Emitting process label (`"coordinator"`, `"site-3"`, ...). Empty in
  /// single-process runs; set via TraceLog::SetProcess in daemon/fork
  /// deployments so per-process files can be merged (serialized as the
  /// optional `"proc"` JSONL key).
  std::string proc;
  /// Coordinator-issued trace epoch active when the event was emitted, or
  /// -1 before the first epoch is known (serialized as the optional
  /// `"tepoch"` key). Sites stamp the epoch they last anchored to, so the
  /// merged timeline can group events by protocol incarnation.
  long epoch = -1;
  std::vector<TraceArg> args;
};

/// Append-only structured event log with JSONL and Chrome trace_event
/// output. Thread-safe (a mutex serializes emits); in the single-threaded
/// simulation drivers the emit order — and therefore the file — is fully
/// deterministic.
class TraceLog {
 public:
  /// How head-based sampling treats an event (docs/OBSERVABILITY.md):
  ///  * kAlways  — rare lifecycle/diagnostic events, never sampled out;
  ///  * kCascade — rides a coordinator-minted span: skipped when the span
  ///    carries kSpanUnsampledBit (span-less instances always record);
  ///  * kNoise   — span-less high-volume chatter, kept by a deterministic
  ///    per-(actor, cycle) coin at the configured rate.
  enum class SampleClass { kAlways, kCascade, kNoise };

  TraceLog() = default;
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// Sets the cycle stamped on subsequent events (drivers call this once
  /// per update cycle).
  void SetCycle(long cycle);
  long cycle() const;

  /// Sets the process label stamped on subsequent events. Call once at
  /// process start (before the run emits) so every line of this process's
  /// file carries the same `"proc"` key. Unset → key omitted, keeping
  /// single-process traces byte-identical to the pre-merge format.
  void SetProcess(std::string label);
  std::string process() const;

  /// Sets the coordinator-issued trace epoch stamped on subsequent events.
  /// The coordinator calls this when it mints an epoch (bump / recovery
  /// fence); sites call it when they anchor to one (rejoin/full-sync), so
  /// the stamp is always coordinator-issued. Negative → key omitted.
  void SetEpoch(long epoch);
  long epoch() const;

  /// Records one catalog event, subject to sampling (ConfigureSampling).
  /// A sampled-out event bumps the self-cost counters and draws its coin;
  /// it builds no string and no TraceEvent.
  void Emit(TraceEventId id, int actor, std::vector<TraceArg> args = {});

  /// Adapter for events known only by name: re-emitting parsed traces
  /// (trace_inspect, bench_reliability) and tests. A catalog name shares
  /// the id overload's sampling decision; the event is recorded with the
  /// given `cat` and `name`. A name outside the catalog is always recorded.
  void Emit(std::string cat, std::string name, int actor,
            std::vector<TraceArg> args = {});

  /// Arms head-based sampling: cascade events whose span carries
  /// kSpanUnsampledBit are skipped, and span-less high-volume "noise"
  /// events (heartbeats, injected faults, duplicate suppressions) are kept
  /// with a deterministic per-(actor, cycle) coin at the same rate. The
  /// audit/alert/recovery categories and all rare lifecycle events are
  /// never sampled out. Rate 1.0 (the default) records everything and is
  /// byte-identical to the pre-sampling format. The seed and rate must
  /// match the RuntimeConfig driving the coordinator — both come from the
  /// same config in every driver.
  void ConfigureSampling(double rate, std::uint64_t seed);
  double sample_rate() const;

  /// Mirrors every recorded event into `recorder` (rendered to its JSONL
  /// line at emit time), so a fatal signal can dump the recent window.
  /// Pass nullptr to detach. The recorder must outlive the log.
  void AttachFlightRecorder(FlightRecorder* recorder);
  FlightRecorder* flight_recorder() const;

  /// What the telemetry itself cost so far (the obs.* meter sources).
  struct SelfCost {
    long events_emitted = 0;      ///< Emit calls, sampled or not
    long events_recorded = 0;     ///< events kept in the log
    long events_sampled_out = 0;  ///< events skipped by sampling
    long long bytes_written = 0;  ///< JSONL bytes produced by WriteJsonl
    long long telemetry_ns = 0;   ///< wall ns inside Emit (metrics-only)
  };
  SelfCost self_cost() const;

  std::size_t size() const;
  /// Snapshot accessor for tests; copies under the lock.
  std::vector<TraceEvent> events() const;

  /// One `{"ts":..,"cycle":..,"cat":..,"name":..,"actor":..,"args":{..}}`
  /// object per line, in emit order.
  void WriteJsonl(std::ostream& out) const;

  /// Chrome trace_event JSON (load via chrome://tracing or Perfetto): each
  /// event becomes an instant event on the actor's pseudo-thread (tid 0 =
  /// coordinator, tid i+1 = site i), ts in logical units, plus
  /// thread_name metadata rows.
  void WriteChromeTrace(std::ostream& out) const;

  static void AppendEventJson(const TraceEvent& event, std::ostream& out);

 private:
  /// The sampling gate; caller holds mu_. Strips span tags from `args` and
  /// returns whether the event is recorded.
  bool ShouldRecordLocked(SampleClass sample, int actor,
                          std::vector<TraceArg>* args);
  /// Counts one Emit and runs the sampling gate; caller holds mu_.
  bool AdmitLocked(SampleClass sample, int actor,
                   std::vector<TraceArg>* args);
  /// Appends an admitted event to the log; caller holds mu_.
  void RecordLocked(std::string cat, std::string name, int actor,
                    std::vector<TraceArg> args);

  mutable std::mutex mu_;
  long cycle_ = 0;
  long next_ts_ = 0;
  std::string proc_;
  long epoch_ = -1;
  double sample_rate_ = 1.0;
  std::uint64_t sample_seed_ = 0;
  FlightRecorder* flight_ = nullptr;
  mutable SelfCost self_cost_;
  /// Appends never reallocate or move recorded events (a growing vector
  /// copies every 152-byte event on each doubling).
  std::deque<TraceEvent> events_;
};

/// Validates one JSONL trace line against the event schema: structural keys
/// (ts/cycle/cat/name/actor/args), a known event name, the name's expected
/// category, and its required argument keys. Returns false and fills
/// `error` on the first problem. The catalog lives in trace.cc and is
/// documented in docs/OBSERVABILITY.md.
bool ValidateTraceJsonLine(const std::string& line, std::string* error);

/// JSON string escaping shared by the trace/metric writers.
std::string JsonEscape(const std::string& text);

}  // namespace sgm

#endif  // SGM_OBS_TRACE_H_

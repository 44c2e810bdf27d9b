#include "obs/trace.h"

#include <array>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

#include "core/check.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"

namespace sgm {

namespace {

void AppendArgs(const std::vector<TraceArg>& args, std::ostream& out) {
  out << "{";
  bool first = true;
  for (const TraceArg& arg : args) {
    out << (first ? "" : ",") << "\"" << JsonEscape(arg.key) << "\":";
    switch (arg.kind) {
      case TraceArg::Kind::kInt:
        out << arg.int_value;
        break;
      case TraceArg::Kind::kDouble:
        AppendJsonNumber(out, arg.double_value);
        break;
      case TraceArg::Kind::kString:
        out << "\"" << JsonEscape(arg.string_value) << "\"";
        break;
    }
    first = false;
  }
  out << "}";
}

using SampleClass = TraceLog::SampleClass;

/// One catalog row: the event's category and name, the argument keys that
/// must be present, and its sampling class. Extra args are allowed (events
/// may carry more context than the schema demands); unknown names are
/// schema violations. Keep in sync with docs/OBSERVABILITY.md.
struct EventSpec {
  TraceEventId id;
  const char* cat;
  const char* name;
  std::array<const char*, 5> required_args;  ///< nullptr-padded
  SampleClass sample = SampleClass::kAlways;
};

using Id = TraceEventId;
constexpr SampleClass kCascade = SampleClass::kCascade;
constexpr SampleClass kNoise = SampleClass::kNoise;

/// The event catalog, indexed by TraceEventId.
constexpr EventSpec kCatalog[] = {
    // Protocol lifecycle (coordinator / site / sim protocols).
    {Id::kSyncCycleBegin, "protocol", "sync_cycle_begin", {"span", "trigger"},
     kCascade},
    {Id::kLocalAlarm, "protocol", "local_alarm", {}},
    {Id::kProbeBegin, "protocol", "probe_begin", {"epoch"}, kCascade},
    {Id::kPartialResolution, "protocol", "partial_resolution", {}, kCascade},
    {Id::kOneDResolution, "protocol", "one_d_resolution", {}, kCascade},
    {Id::kFullSyncBegin, "protocol", "full_sync_begin", {"epoch"}, kCascade},
    {Id::kFullSyncComplete, "protocol", "full_sync_complete",
     {"epoch", "degraded"}, kCascade},
    {Id::kSyncRerequest, "protocol", "sync_rerequest", {"epoch", "site"},
     kCascade},
    {Id::kEpochBump, "protocol", "epoch_bump", {"epoch"}},
    {Id::kAnchorApplied, "protocol", "anchor_applied", {"epoch", "source"},
     kCascade},
    {Id::kEpochGap, "protocol", "epoch_gap", {"from_epoch", "to_epoch"}},
    {Id::kStaleEpochDrop, "protocol", "stale_epoch_drop", {"msg_epoch"}},
    {Id::kLateReport, "protocol", "late_report", {"site"}},
    // Reliability layer (acks, rejoin handshake, heartbeats).
    {Id::kHeartbeat, "reliability", "heartbeat", {}, kNoise},
    {Id::kRejoinRequest, "reliability", "rejoin_request", {}},
    {Id::kRejoinGrant, "reliability", "rejoin_grant", {"epoch"}},
    {Id::kRetransmit, "reliability", "retransmit", {"sender", "seq", "attempt"},
     kCascade},
    {Id::kGiveUp, "reliability", "give_up", {"sender", "seq"}},
    {Id::kDuplicateSuppressed, "reliability", "duplicate_suppressed",
     {"sender", "seq"}, kNoise},
    // Failure detector transitions.
    {Id::kHeartbeatMiss, "failure", "heartbeat_miss", {"misses"}, kNoise},
    {Id::kSuspect, "failure", "suspect", {"misses"}},
    {Id::kDead, "failure", "dead", {"deaths"}},
    {Id::kUnreachable, "failure", "unreachable", {}},
    {Id::kQuarantined, "failure", "quarantined", {"until_cycle"}},
    {Id::kRejoinBegin, "failure", "rejoin_begin", {}},
    {Id::kRejoinComplete, "failure", "rejoin_complete", {}},
    // Lag quarantine (FailureDetector): missed barrier deadlines, the
    // lagging verdict, and the staleness-window close on catch-up.
    {Id::kDeadlineMiss, "failure", "deadline_miss", {"misses"}, kNoise},
    {Id::kLagging, "failure", "lagging", {"since_cycle"}},
    {Id::kLagRecovered, "failure", "lag_recovered", {"staleness_cycles"}},
    // Per-span transport cost attribution (ReliableTransport).
    {Id::kMsgSend, "transport", "msg_send", {"type", "span", "bytes"},
     kCascade},
    // Online accuracy auditing (AccuracyAuditor).
    {Id::kBoundViolation, "audit", "bound_violation", {"kind", "span"}},
    // Online anomaly detection (AnomalyDetector): a tracked signal's
    // per-cycle value left its Welford z-score band.
    {Id::kAlertRaised, "alert", "alert_raised",
     {"metric", "kind", "value", "mean", "z"}},
    // Injected faults (SimTransport).
    {Id::kSiteCrash, "fault", "site_crash", {}},
    {Id::kSiteRecover, "fault", "site_recover", {}},
    {Id::kDrop, "fault", "drop", {"type"}, kNoise},
    {Id::kDuplicate, "fault", "duplicate", {"type"}, kNoise},
    {Id::kDelay, "fault", "delay", {"type", "rounds"}, kNoise},
    {Id::kCorrupt, "fault", "corrupt", {"type"}, kNoise},
    {Id::kCoordinatorCrash, "fault", "coordinator_crash", {"epoch"}},
    // Crash recovery (checkpoint writes and the recovery state machine).
    {Id::kCheckpointWrite, "recovery", "checkpoint_write", {"epoch", "bytes"}},
    {Id::kRecoveryBegin, "recovery", "recovery_begin",
     {"span", "epoch", "wal_replayed"}},
    {Id::kRecoveryComplete, "recovery", "recovery_complete",
     {"span", "epoch", "grants"}},
    {Id::kSnapshotFallback, "recovery", "snapshot_fallback", {"discarded"}},
    {Id::kWalTornTail, "recovery", "wal_torn_tail", {"bytes"}},
    // Deadline-driven barriers and lag quarantine (CoordinatorServer /
    // CoordinatorNode): straggler handling, never sampled away.
    {Id::kBarrierSlow, "degraded", "barrier_slow", {"deadline_ms"}},
    {Id::kBarrierDeadline, "degraded", "barrier_deadline",
     {"missed", "quarantined"}},
    {Id::kDegradedCycle, "degraded", "degraded_cycle", {"missing"}},
    {Id::kSiteQuarantined, "degraded", "site_quarantined", {}},
    // Socket-session lifecycle (CoordinatorServer / SiteClient).
    {Id::kSiteHello, "session", "site_hello", {"fd"}},
    {Id::kSiteRehello, "session", "site_rehello", {"fd"}},
    {Id::kSiteDisconnect, "session", "site_disconnect", {}},
    {Id::kConnectionLost, "session", "connection_lost", {"reason"}},
    {Id::kReconnect, "session", "reconnect", {"attempt"}},
    // Injected network chaos (ChaosSocketTransport).
    {Id::kChaosReset, "chaos", "chaos_reset", {}},
    {Id::kChaosHalfOpen, "chaos", "chaos_half_open", {}},
    {Id::kChaosStall, "chaos", "chaos_stall", {"ms"}},
    // Run/benchmark markers emitted by the tools.
    {Id::kRunBegin, "run", "run_begin", {}},
    {Id::kCellBegin, "run", "cell_begin", {}},
};

/// The audit/alert/recovery planes are diagnostic surfaces an operator must
/// be able to trust at any rate; they bypass sampling entirely (checked
/// before the span scan — bound_violation carries a possibly-tagged span).
constexpr bool ExemptCategory(std::string_view cat) {
  return cat == "audit" || cat == "alert" || cat == "recovery";
}

/// Rows sit at their id's index, and an exempt category's rows are all
/// kAlways, so the id path can take a row's class as its decision.
constexpr bool CatalogIsConsistent() {
  if (std::size(kCatalog) != kTraceEventCount) return false;
  for (std::size_t i = 0; i < std::size(kCatalog); ++i) {
    if (static_cast<std::size_t>(kCatalog[i].id) != i) return false;
    if (ExemptCategory(kCatalog[i].cat) &&
        kCatalog[i].sample != SampleClass::kAlways) {
      return false;
    }
  }
  return true;
}
static_assert(CatalogIsConsistent(),
              "kCatalog must list every TraceEventId in enum order");

const EventSpec& Spec(TraceEventId id) {
  return kCatalog[static_cast<std::size_t>(id)];
}

/// The catalog row named `name`, or nullptr.
const EventSpec* FindSpec(std::string_view name) {
  static const auto* by_name = [] {
    auto* index = new std::map<std::string_view, const EventSpec*>;
    for (const EventSpec& spec : kCatalog) (*index)[spec.name] = &spec;
    return index;
  }();
  const auto it = by_name->find(name);
  return it == by_name->end() ? nullptr : it->second;
}

/// SplitMix64 finalizer — the same mixing the seeded RNGs use, applied to
/// sampling decisions so they are a pure function of (seed, key).
std::uint64_t MixBits(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic coin: true with probability ~`rate` as a function of the
/// mixed key alone.
bool SampledCoin(std::uint64_t key, double rate) {
  // Top 53 bits → uniform double in [0, 1).
  const double u =
      static_cast<double>(MixBits(key) >> 11) * (1.0 / 9007199254740992.0);
  return u < rate;
}

/// Removes kSpanUnsampledBit from span-carrying args so recorded traces
/// always show the raw minted ids (and rate-1.0 output stays identical —
/// the bit is never set there).
void StripSpanTags(std::vector<TraceArg>* args) {
  for (TraceArg& arg : *args) {
    if (arg.kind != TraceArg::Kind::kInt) continue;
    if (arg.key == "span" || arg.key == "parent") {
      arg.int_value = SpanId(arg.int_value);
    }
  }
}

}  // namespace

bool TraceSampleDecision(std::uint64_t seed, std::int64_t root_span,
                         double rate) {
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  return SampledCoin(seed ^ MixBits(static_cast<std::uint64_t>(
                                SpanId(root_span))),
                     rate);
}

const char* TraceEventCategory(TraceEventId id) { return Spec(id).cat; }

const char* TraceEventName(TraceEventId id) { return Spec(id).name; }

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void TraceLog::SetCycle(long cycle) {
  std::lock_guard<std::mutex> lock(mu_);
  cycle_ = cycle;
}

long TraceLog::cycle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cycle_;
}

void TraceLog::SetProcess(std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  proc_ = std::move(label);
}

std::string TraceLog::process() const {
  std::lock_guard<std::mutex> lock(mu_);
  return proc_;
}

void TraceLog::SetEpoch(long epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  epoch_ = epoch;
}

long TraceLog::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

void TraceLog::ConfigureSampling(double rate, std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  sample_rate_ = rate;
  sample_seed_ = seed;
}

double TraceLog::sample_rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sample_rate_;
}

void TraceLog::AttachFlightRecorder(FlightRecorder* recorder) {
  std::lock_guard<std::mutex> lock(mu_);
  flight_ = recorder;
}

FlightRecorder* TraceLog::flight_recorder() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flight_;
}

TraceLog::SelfCost TraceLog::self_cost() const {
  std::lock_guard<std::mutex> lock(mu_);
  return self_cost_;
}

bool TraceLog::ShouldRecordLocked(SampleClass sample, int actor,
                                  std::vector<TraceArg>* args) {
  switch (sample) {
    case SampleClass::kAlways:
      StripSpanTags(args);
      return true;
    case SampleClass::kCascade:
      for (const TraceArg& arg : *args) {
        if (arg.kind == TraceArg::Kind::kInt && arg.key == "span" &&
            SpanUnsampled(arg.int_value)) {
          return false;
        }
      }
      // Span-less (or span-0) instances have no cascade to follow — the
      // sim protocols emit these — so they always record.
      StripSpanTags(args);
      return true;
    case SampleClass::kNoise:
      return SampledCoin(sample_seed_ ^
                             MixBits(static_cast<std::uint64_t>(actor) *
                                         0x51ed270b0f4dULL +
                                     static_cast<std::uint64_t>(cycle_)),
                         sample_rate_);
  }
  return true;
}

bool TraceLog::AdmitLocked(SampleClass sample, int actor,
                           std::vector<TraceArg>* args) {
  ++self_cost_.events_emitted;
  if (sample_rate_ < 1.0 && !ShouldRecordLocked(sample, actor, args)) {
    // Sampled-out fast path: counter bumps and the sampling decision only —
    // deliberately untimed, since a pair of clock reads would cost several
    // times the path itself and the whole point of sampling is that skipped
    // events are nearly free.
    ++self_cost_.events_sampled_out;
    return false;
  }
  return true;
}

void TraceLog::Emit(TraceEventId id, int actor, std::vector<TraceArg> args) {
  const EventSpec& spec = Spec(id);
  std::lock_guard<std::mutex> lock(mu_);
  if (!AdmitLocked(spec.sample, actor, &args)) return;
  RecordLocked(spec.cat, spec.name, actor, std::move(args));
}

void TraceLog::Emit(std::string cat, std::string name, int actor,
                    std::vector<TraceArg> args) {
  const EventSpec* spec = FindSpec(name);
  const SampleClass sample = spec == nullptr || ExemptCategory(cat)
                                 ? SampleClass::kAlways
                                 : spec->sample;
  std::lock_guard<std::mutex> lock(mu_);
  if (!AdmitLocked(sample, actor, &args)) return;
  RecordLocked(std::move(cat), std::move(name), actor, std::move(args));
}

void TraceLog::RecordLocked(std::string cat, std::string name, int actor,
                            std::vector<TraceArg> args) {
  // Self-cost timing is itself sampled (every 13th recorded event, scaled
  // back up): a clock-read pair costs as much as storing the event, so
  // timing each one would double the overhead the meter exists to expose.
  // The stride is prime so it can't alias the log's periodic block
  // allocations (which would attribute every allocation to a timed event
  // and overstate the extrapolation).
  const bool timed = self_cost_.events_recorded % 13 == 0;
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point();
  ++self_cost_.events_recorded;
  TraceEvent& event = events_.emplace_back();
  event.ts = next_ts_++;
  event.cycle = cycle_;
  event.cat = std::move(cat);
  event.name = std::move(name);
  event.actor = actor;
  if (!proc_.empty()) event.proc = proc_;
  event.epoch = epoch_;
  event.args = std::move(args);
  if (flight_ != nullptr) {
    // Render at emit: the recorder must hold finished lines a signal
    // handler can dump without touching the heap or this lock.
    std::ostringstream line;
    AppendEventJson(event, line);
    flight_->Record(line.str());
  }
  if (timed) {
    self_cost_.telemetry_ns +=
        13 * std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - start)
                 .count();
  }
}

std::size_t TraceLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {events_.begin(), events_.end()};
}

void TraceLog::AppendEventJson(const TraceEvent& event, std::ostream& out) {
  out << "{\"ts\":" << event.ts << ",\"cycle\":" << event.cycle << ",\"cat\":\""
      << JsonEscape(event.cat) << "\",\"name\":\"" << JsonEscape(event.name)
      << "\",\"actor\":" << event.actor;
  // Optional cross-process keys: omitted when unset so single-process
  // traces keep the historical byte-identical format.
  if (!event.proc.empty()) {
    out << ",\"proc\":\"" << JsonEscape(event.proc) << "\"";
  }
  if (event.epoch >= 0) {
    out << ",\"tepoch\":" << event.epoch;
  }
  out << ",\"args\":";
  AppendArgs(event.args, out);
  out << "}";
}

void TraceLog::WriteJsonl(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  long long bytes = 0;
  for (const TraceEvent& event : events_) {
    std::ostringstream line;
    AppendEventJson(event, line);
    line << "\n";
    const std::string rendered = line.str();
    bytes += static_cast<long long>(rendered.size());
    out << rendered;
  }
  self_cost_.bytes_written += bytes;
}

void TraceLog::WriteChromeTrace(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[\n";
  // Pseudo-thread naming: tid 0 is the coordinator, tid i+1 is site i.
  std::set<int> actors;
  for (const TraceEvent& event : events_) actors.insert(event.actor);
  bool first = true;
  for (const int actor : actors) {
    out << (first ? "" : ",\n")
        << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
        << actor + 1 << ",\"args\":{\"name\":\"";
    if (actor < 0) {
      out << "coordinator";
    } else {
      out << "site " << actor;
    }
    out << "\"}}";
    first = false;
  }
  for (const TraceEvent& event : events_) {
    out << (first ? "" : ",\n")
        << "{\"name\":\"" << JsonEscape(event.name) << "\",\"cat\":\""
        << JsonEscape(event.cat) << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0"
        << ",\"tid\":" << event.actor + 1 << ",\"ts\":" << event.ts
        << ",\"args\":";
    std::vector<TraceArg> args = event.args;
    args.emplace_back("cycle", event.cycle);
    AppendArgs(args, out);
    out << "}";
    first = false;
  }
  out << "\n]}\n";
}

bool ValidateTraceJsonLine(const std::string& line, std::string* error) {
  SGM_CHECK(error != nullptr);
  const Result<JsonValue> parsed = JsonValue::Parse(line);
  if (!parsed.ok()) {
    *error = "not valid JSON: " + parsed.status().message();
    return false;
  }
  const JsonValue& value = parsed.ValueOrDie();
  if (!value.is_object()) {
    *error = "trace line is not a JSON object";
    return false;
  }
  for (const char* key : {"ts", "cycle", "actor"}) {
    const JsonValue* field = value.Find(key);
    if (field == nullptr || !field->is_number()) {
      *error = std::string("missing or non-numeric \"") + key + "\"";
      return false;
    }
  }
  const JsonValue* name = value.Find("name");
  const JsonValue* cat = value.Find("cat");
  if (name == nullptr || !name->is_string() || cat == nullptr ||
      !cat->is_string()) {
    *error = "missing or non-string \"name\"/\"cat\"";
    return false;
  }
  const JsonValue* args = value.Find("args");
  if (args == nullptr || !args->is_object()) {
    *error = "missing or non-object \"args\"";
    return false;
  }
  // Optional cross-process stamps: when present they must be well-typed.
  if (const JsonValue* proc = value.Find("proc")) {
    if (!proc->is_string() || proc->string_value().empty()) {
      *error = "\"proc\" must be a non-empty string when present";
      return false;
    }
  }
  if (const JsonValue* tepoch = value.Find("tepoch")) {
    if (!tepoch->is_number()) {
      *error = "\"tepoch\" must be numeric when present";
      return false;
    }
  }
  const EventSpec* spec = FindSpec(name->string_value());
  if (spec == nullptr) {
    *error = "unknown event name \"" + name->string_value() + "\"";
    return false;
  }
  if (cat->string_value() != spec->cat) {
    *error = "event \"" + name->string_value() + "\" expects category \"" +
             spec->cat + "\", got \"" + cat->string_value() + "\"";
    return false;
  }
  for (const char* required : spec->required_args) {
    if (required == nullptr) break;
    if (args->Find(required) == nullptr) {
      *error = "event \"" + name->string_value() +
               "\" missing required arg \"" + required + "\"";
      return false;
    }
  }
  return true;
}

}  // namespace sgm

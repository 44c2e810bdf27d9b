#ifndef SGM_OBS_TRACE_MERGE_H_
#define SGM_OBS_TRACE_MERGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "obs/trace.h"

namespace sgm {

/// Rebuilds a TraceEvent from one JSONL trace line, including the optional
/// cross-process `proc` / `tepoch` stamps. Integral JSON numbers within
/// int64's range round-trip as int args; other numbers stay doubles.
/// Returns false and fills `error` on parse failure, or when `ts`, `cycle`,
/// `actor` or `tepoch` is not an integer in its field's range (shared by
/// trace_inspect and the merge loader).
bool ParseTraceEventLine(const std::string& line, TraceEvent* event,
                         std::string* error);

/// Loads one per-process JSONL trace file. Events without a `proc` stamp
/// get `fallback_proc` (typically derived from the filename), so merges of
/// pre-stamping traces still carry a process identity. When `validate` is
/// set, every line must pass ValidateTraceJsonLine — the first schema
/// violation fails the load.
Status LoadTraceJsonl(const std::string& path,
                      const std::string& fallback_proc, bool validate,
                      std::vector<TraceEvent>* out);

/// Crash-tolerant variant: a process killed mid-write (SIGKILL during a
/// chaos run, a fatal-signal flight dump racing a writer) leaves a file
/// whose *final* line may be torn. This overload drops an unparseable last
/// line and describes it in `warning` (empty = clean load) instead of
/// failing; an empty file loads as zero events. Bad lines anywhere else
/// still fail — mid-file corruption is a real error, not truncation.
Status LoadTraceJsonlTolerant(const std::string& path,
                              const std::string& fallback_proc, bool validate,
                              std::vector<TraceEvent>* out,
                              std::string* warning);

/// Merges per-process trace logs into one causally ordered timeline.
///
/// Each process's logical `ts` only orders events *within* that process,
/// so the merge orders across processes by what the protocol guarantees:
///   1. cycle — the coordinator's flush-barrier lockstep aligns cycle
///      numbers across every process;
///   2. span id (span-less events first) — the coordinator mints span ids
///      monotonically, so a parent span always sorts before its children
///      and a cascade's phases appear in mint order;
///   3. input order — pass the coordinator's log FIRST: for one span the
///      coordinator's events (minting, probe send) precede the sites'
///      echoes of the same id;
///   4. the per-process `ts` — preserving each process's own emit order.
///
/// The result is deterministic for a given set of inputs, and `ts` is NOT
/// re-stamped: the per-process logical clocks stay visible, with `proc`
/// disambiguating them.
std::vector<TraceEvent> MergeTraceTimelines(
    std::vector<std::vector<TraceEvent>> logs);

/// Span-forest reconstruction over a (merged) timeline, mirroring
/// `trace_inspect --spans`: one node per distinct span id, parent links
/// from the `parent` arg, orphan = a span whose parent id never appears as
/// a span — a broken causal chain.
struct SpanForestSummary {
  struct Root {
    std::int64_t span = 0;
    std::string label;    ///< "sync_cycle", "rejoin_grant", ...
    std::string trigger;  ///< sync_cycle_begin roots only
    long spans = 0;       ///< subtree size
    long events = 0;      ///< events across the subtree
    /// Distinct process labels on the critical path — the root-to-leaf
    /// chain whose subtree finishes last. A probe cascade served by real
    /// site processes crosses ≥2 processes here.
    std::vector<std::string> critical_path_procs;
    /// Distinct process labels across the whole subtree.
    std::vector<std::string> procs;
  };

  long spans = 0;
  long span_events = 0;
  long roots = 0;
  /// Spans whose events were emitted by more than one process — the
  /// cross-process causal edges the merge exists to expose.
  long cross_process_spans = 0;
  std::vector<Root> root_details;
  /// One description per orphan span (empty = validated forest).
  std::vector<std::string> orphans;
};

SpanForestSummary SummarizeSpanForest(const std::vector<TraceEvent>& events);

}  // namespace sgm

#endif  // SGM_OBS_TRACE_MERGE_H_

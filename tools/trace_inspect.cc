// Inspector for JSONL protocol traces (the --trace output of sgm_monitor,
// dst_stress and bench_reliability).
//
// Modes (combine filters with any mode):
//   trace_inspect FILE                     per-category/name event summary
//   trace_inspect --validate FILE          schema-check every line; exit 1
//                                          on the first invalid line
//   trace_inspect --chrome=OUT FILE        convert to Chrome trace_event
//                                          JSON (chrome://tracing, Perfetto)
//   trace_inspect --spans FILE             reconstruct causal span trees:
//                                          one tree per sync cascade (or
//                                          rejoin grant), with per-span
//                                          message/byte cost and the
//                                          critical path; exit 1 on any
//                                          orphan span
//   trace_inspect --merge FILE...         join per-process trace files
//                                          (pass the coordinator's FIRST)
//                                          into one causally ordered
//                                          timeline; prints the merged
//                                          span-forest summary and exits 1
//                                          on any orphan span. Add
//                                          --out=MERGED.jsonl to write the
//                                          merged timeline, --validate to
//                                          schema-check every input line,
//                                          --spans for the full per-root
//                                          report over the merged forest.
//   trace_inspect --cat=C --name=N --actor=A --site=S
//                 --cycle-min=X --cycle-max=Y --cycles=A:B
//                                          print matching lines verbatim
//
// `--site=S` is the site-centric spelling of `--actor=S` (the coordinator
// is actor -1) and `--cycles=A:B` sets both cycle bounds at once; either
// side may be omitted (`--cycles=40:` = from cycle 40 on).
//
// Filters apply to the summary, --chrome conversion and --spans too, so
// e.g.
//   trace_inspect --cat=failure --chrome=fail.json trace.jsonl
// produces a timeline of just the failure-detector lifecycle.

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_merge.h"

namespace {

struct Options {
  std::string file;
  std::vector<std::string> merge_files;
  std::string chrome_out;
  std::string merge_out;
  bool merge = false;
  bool validate = false;
  bool spans = false;
  bool print_matches = false;  // set when any filter is given
  std::string cat;
  std::string name;
  int actor = INT_MIN;
  long cycle_min = LONG_MIN;
  long cycle_max = LONG_MAX;
};

bool ParseFlag(const std::string& arg, const char* flag, std::string* out) {
  const std::size_t len = std::strlen(flag);
  if (arg.rfind(flag, 0) != 0) return false;
  *out = arg.substr(len);
  return true;
}

bool Matches(const Options& options, const sgm::TraceEvent& event) {
  if (!options.cat.empty() && event.cat != options.cat) return false;
  if (!options.name.empty() && event.name != options.name) return false;
  if (options.actor != INT_MIN && event.actor != options.actor) return false;
  return event.cycle >= options.cycle_min && event.cycle <= options.cycle_max;
}

const sgm::TraceArg* FindArg(const sgm::TraceEvent& event, const char* key) {
  for (const sgm::TraceArg& arg : event.args) {
    if (arg.key == key) return &arg;
  }
  return nullptr;
}

std::int64_t IntArg(const sgm::TraceEvent& event, const char* key) {
  const sgm::TraceArg* arg = FindArg(event, key);
  if (arg == nullptr || arg->kind != sgm::TraceArg::Kind::kInt) return 0;
  return arg->int_value;
}

std::string StringArg(const sgm::TraceEvent& event, const char* key) {
  const sgm::TraceArg* arg = FindArg(event, key);
  if (arg == nullptr || arg->kind != sgm::TraceArg::Kind::kString) return "";
  return arg->string_value;
}

/// One node of a reconstructed span tree. Spans are minted by the
/// coordinator as logical counters; a node exists for every distinct span
/// id referenced anywhere in the trace (a broadcast span, for instance, is
/// known only through its msg_send events).
struct SpanNode {
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0 = root (sync cascade or rejoin grant)
  std::string label;        // first event name that carried the span
  std::string trigger;      // sync_cycle_begin only
  long first_ts = LONG_MAX;
  long last_ts = LONG_MIN;
  long first_cycle = LONG_MAX;
  long last_cycle = LONG_MIN;
  long events = 0;
  long messages = 0;  // msg_send + retransmit events on this span
  long long bytes = 0;
  std::vector<std::int64_t> children;
};

struct SpanTotals {
  long spans = 0;
  long messages = 0;
  long long bytes = 0;
  long last_ts = LONG_MIN;
};

SpanTotals SubtreeTotals(const std::map<std::int64_t, SpanNode>& spans,
                         std::int64_t id) {
  const SpanNode& node = spans.at(id);
  SpanTotals totals;
  totals.spans = 1;
  totals.messages = node.messages;
  totals.bytes = node.bytes;
  totals.last_ts = node.last_ts;
  for (const std::int64_t child : node.children) {
    const SpanTotals sub = SubtreeTotals(spans, child);
    totals.spans += sub.spans;
    totals.messages += sub.messages;
    totals.bytes += sub.bytes;
    totals.last_ts = std::max(totals.last_ts, sub.last_ts);
  }
  return totals;
}

void PrintSubtree(const std::map<std::int64_t, SpanNode>& spans,
                  std::int64_t id, int depth) {
  const SpanNode& node = spans.at(id);
  std::printf("%*sspan %lld %s: %ld events, %ld msgs, %lld bytes,"
              " ts %ld..%ld\n",
              2 + 2 * depth, "", static_cast<long long>(node.id),
              node.label.c_str(), node.events, node.messages, node.bytes,
              node.first_ts, node.last_ts);
  for (const std::int64_t child : node.children) {
    PrintSubtree(spans, child, depth + 1);
  }
}

/// Reconstructs the span forest from the filtered events and prints one
/// block per root span (a sync cascade or a rejoin grant): its subtree with
/// per-span message/byte cost, plus the critical path — the root-to-leaf
/// chain whose subtree finishes last in logical time. Returns 1 (and lists
/// the offenders) if any span references a parent that never appears as a
/// span anywhere in the trace: an orphan means the cascade's causal chain
/// was broken, which a complete trace never exhibits.
int RunSpanReport(const std::string& file,
                  const std::vector<sgm::TraceEvent>& events) {
  std::map<std::int64_t, SpanNode> spans;
  long span_events = 0;
  for (const sgm::TraceEvent& event : events) {
    const std::int64_t id = IntArg(event, "span");
    if (id == 0) continue;
    ++span_events;
    SpanNode& node = spans[id];
    node.id = id;
    if (node.label.empty()) {
      node.label = event.name == "msg_send" ? "send:" + StringArg(event, "type")
                                            : event.name;
    }
    if (event.name == "sync_cycle_begin") {
      node.label = "sync_cycle";
      node.trigger = StringArg(event, "trigger");
    }
    const std::int64_t parent = IntArg(event, "parent");
    if (parent != 0) node.parent = parent;
    node.first_ts = std::min(node.first_ts, event.ts);
    node.last_ts = std::max(node.last_ts, event.ts);
    node.first_cycle = std::min(node.first_cycle, event.cycle);
    node.last_cycle = std::max(node.last_cycle, event.cycle);
    node.events += 1;
    if (const sgm::TraceArg* bytes = FindArg(event, "bytes")) {
      node.messages += 1;
      node.bytes += bytes->int_value;
    }
  }

  // Link children; collect orphans (parent id never seen as a span).
  std::vector<const SpanNode*> orphans;
  for (auto& [id, node] : spans) {
    if (node.parent == 0) continue;
    auto parent = spans.find(node.parent);
    if (parent == spans.end()) {
      orphans.push_back(&node);
    } else {
      parent->second.children.push_back(id);
    }
  }

  long roots = 0;
  long cascades = 0;
  for (const auto& [id, node] : spans) {
    if (node.parent != 0) continue;
    ++roots;
    if (!node.trigger.empty()) ++cascades;
    const SpanTotals totals = SubtreeTotals(spans, id);
    std::printf("root span %lld [%s%s%s] cycles %ld..%ld:"
                " %ld spans, %ld msgs, %lld bytes, ts %ld..%ld\n",
                static_cast<long long>(id), node.label.c_str(),
                node.trigger.empty() ? "" : " trigger=",
                node.trigger.c_str(), node.first_cycle, node.last_cycle,
                totals.spans, totals.messages, totals.bytes, node.first_ts,
                totals.last_ts);
    for (const std::int64_t child : node.children) {
      PrintSubtree(spans, child, 0);
    }
    // Critical path: follow, from the root, the child whose subtree ends
    // latest; stop when the current span itself outlives every child's
    // subtree. With logical timestamps this is the chain of phases that
    // determined when the cascade completed.
    std::printf("  critical path:");
    std::int64_t at = id;
    for (;;) {
      const SpanNode& here = spans.at(at);
      std::printf(" %lld(%s)", static_cast<long long>(at),
                  here.label.c_str());
      std::int64_t next = 0;
      long next_end = here.last_ts;
      for (const std::int64_t child : here.children) {
        const long end = SubtreeTotals(spans, child).last_ts;
        if (end > next_end) {
          next_end = end;
          next = child;
        }
      }
      if (next == 0) break;
      std::printf(" ->");
      at = next;
    }
    std::printf(", ends ts %ld\n", totals.last_ts);
  }

  std::printf("%s: %zu spans, %ld roots (%ld sync cascades), %ld span"
              " events, %zu orphans\n",
              file.c_str(), spans.size(), roots, cascades, span_events,
              orphans.size());
  for (const SpanNode* orphan : orphans) {
    std::printf("  orphan span %lld (%s): parent %lld never appears as a"
                " span\n",
                static_cast<long long>(orphan->id), orphan->label.c_str(),
                static_cast<long long>(orphan->parent));
  }
  return orphans.empty() ? 0 : 1;
}

/// "out/site0.trace.jsonl" → "site0": the fallback process label for
/// pre-stamping trace files, keyed off the filename.
std::string ProcFromFilename(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.find('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

/// --merge: load every per-process file, join them into one causally
/// ordered timeline (see obs/trace_merge.h for the ordering argument),
/// optionally write it out, and summarize the merged span forest. Orphan
/// spans — a causal chain broken *across* processes — exit 1.
int RunMerge(const Options& options) {
  std::vector<std::vector<sgm::TraceEvent>> logs;
  for (const std::string& file : options.merge_files) {
    std::vector<sgm::TraceEvent> events;
    std::string warning;
    const sgm::Status loaded = sgm::LoadTraceJsonlTolerant(
        file, ProcFromFilename(file), options.validate, &events, &warning);
    if (!loaded.ok()) {
      // A chaos run's artifact set legitimately contains files from
      // processes killed before their first flush — skip those with a
      // warning instead of refusing the whole merge. Mid-file corruption
      // still fails the load above and the merge with it.
      if (loaded.code() == sgm::StatusCode::kNotFound) {
        std::fprintf(stderr, "warning: %s: skipped (%s)\n", file.c_str(),
                     loaded.message().c_str());
        continue;
      }
      std::fprintf(stderr, "%s: %s\n", file.c_str(),
                   loaded.message().c_str());
      return 1;
    }
    if (!warning.empty()) {
      std::fprintf(stderr, "warning: %s\n", warning.c_str());
    }
    if (events.empty()) {
      std::fprintf(stderr, "warning: %s: no events (empty or torn file)\n",
                   file.c_str());
      continue;
    }
    std::vector<sgm::TraceEvent> kept;
    for (sgm::TraceEvent& event : events) {
      if (Matches(options, event)) kept.push_back(std::move(event));
    }
    logs.push_back(std::move(kept));
  }
  const std::vector<sgm::TraceEvent> merged =
      sgm::MergeTraceTimelines(std::move(logs));

  if (!options.merge_out.empty()) {
    std::ofstream out(options.merge_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", options.merge_out.c_str());
      return 1;
    }
    for (const sgm::TraceEvent& event : merged) {
      sgm::TraceLog::AppendEventJson(event, out);
      out << "\n";
    }
    std::printf("wrote %zu merged events to %s\n", merged.size(),
                options.merge_out.c_str());
  }

  if (options.spans) {
    const int rc = RunSpanReport("merged", merged);
    if (rc != 0) return rc;
  }

  const sgm::SpanForestSummary forest = sgm::SummarizeSpanForest(merged);
  std::printf("merged %zu files: %zu events, %ld spans, %ld roots,"
              " %ld cross-process spans\n",
              options.merge_files.size(), merged.size(), forest.spans,
              forest.roots, forest.cross_process_spans);
  for (const auto& root : forest.root_details) {
    std::printf("  root %lld [%s%s%s]: %ld spans, %ld events, procs",
                static_cast<long long>(root.span), root.label.c_str(),
                root.trigger.empty() ? "" : " trigger=",
                root.trigger.c_str(), root.spans, root.events);
    for (const std::string& proc : root.procs) {
      std::printf(" %s", proc.c_str());
    }
    std::printf(", critical path via");
    for (const std::string& proc : root.critical_path_procs) {
      std::printf(" %s", proc.c_str());
    }
    std::printf("\n");
  }
  for (const std::string& orphan : forest.orphans) {
    std::printf("  orphan: %s\n", orphan.c_str());
  }
  if (!forest.orphans.empty()) return 1;
  if (options.validate) std::printf("validation: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--validate") {
      options.validate = true;
    } else if (arg == "--spans") {
      options.spans = true;
    } else if (arg == "--merge") {
      options.merge = true;
    } else if (ParseFlag(arg, "--out=", &options.merge_out)) {
    } else if (ParseFlag(arg, "--chrome=", &options.chrome_out)) {
    } else if (ParseFlag(arg, "--cat=", &options.cat)) {
      options.print_matches = true;
    } else if (ParseFlag(arg, "--name=", &options.name)) {
      options.print_matches = true;
    } else if (ParseFlag(arg, "--actor=", &value) ||
               ParseFlag(arg, "--site=", &value)) {
      options.actor = std::atoi(value.c_str());
      options.print_matches = true;
    } else if (ParseFlag(arg, "--cycle-min=", &value)) {
      options.cycle_min = std::atol(value.c_str());
      options.print_matches = true;
    } else if (ParseFlag(arg, "--cycle-max=", &value)) {
      options.cycle_max = std::atol(value.c_str());
      options.print_matches = true;
    } else if (ParseFlag(arg, "--cycles=", &value)) {
      const std::size_t colon = value.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--cycles expects A:B (either side optional)\n");
        return 2;
      }
      const std::string lo = value.substr(0, colon);
      const std::string hi = value.substr(colon + 1);
      if (!lo.empty()) options.cycle_min = std::atol(lo.c_str());
      if (!hi.empty()) options.cycle_max = std::atol(hi.c_str());
      options.print_matches = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    } else if (options.merge) {
      options.merge_files.push_back(arg);
    } else if (options.file.empty()) {
      options.file = arg;
    } else {
      std::fprintf(stderr,
                   "multiple input files given (use --merge, coordinator"
                   " file first)\n");
      return 2;
    }
  }
  if (options.merge) {
    if (!options.file.empty()) {
      options.merge_files.insert(options.merge_files.begin(), options.file);
    }
    if (options.merge_files.empty()) {
      std::fprintf(stderr,
                   "usage: trace_inspect --merge [--validate] [--spans]"
                   " [--out=MERGED] COORD_FILE SITE_FILE...\n");
      return 2;
    }
    return RunMerge(options);
  }
  if (options.file.empty()) {
    std::fprintf(stderr,
                 "usage: trace_inspect [--validate] [--spans] [--chrome=OUT]"
                 " [--merge FILE...] [--cat=C] [--name=N] [--actor=A]"
                 " [--site=S] [--cycle-min=X] [--cycle-max=Y]"
                 " [--cycles=A:B] FILE\n");
    return 2;
  }

  std::ifstream in(options.file);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", options.file.c_str());
    return 1;
  }

  // Single pass: validate (optionally), parse, filter, accumulate.
  std::vector<sgm::TraceEvent> events;
  std::map<std::string, std::map<std::string, long>> by_cat_name;
  std::set<int> actors;
  long line_number = 0;
  long total_lines = 0;
  long min_cycle = LONG_MAX;
  long max_cycle = LONG_MIN;
  std::string line;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    ++total_lines;
    if (options.validate) {
      std::string error;
      if (!sgm::ValidateTraceJsonLine(line, &error)) {
        std::fprintf(stderr, "%s:%ld: invalid event: %s\n",
                     options.file.c_str(), line_number, error.c_str());
        return 1;
      }
    }
    sgm::TraceEvent event;
    std::string parse_error;
    if (!sgm::ParseTraceEventLine(line, &event, &parse_error)) {
      std::fprintf(stderr, "%s:%ld: unparseable event: %s\n",
                   options.file.c_str(), line_number, parse_error.c_str());
      return 1;
    }
    if (!Matches(options, event)) continue;
    by_cat_name[event.cat][event.name] += 1;
    actors.insert(event.actor);
    min_cycle = std::min(min_cycle, event.cycle);
    max_cycle = std::max(max_cycle, event.cycle);
    if (options.print_matches && options.chrome_out.empty() &&
        !options.spans) {
      std::printf("%s\n", line.c_str());
    }
    if (!options.chrome_out.empty() || options.spans) {
      events.push_back(std::move(event));
    }
  }

  if (options.spans) {
    return RunSpanReport(options.file, events);
  }

  if (!options.chrome_out.empty()) {
    // Replay the (filtered) events through a fresh log so WriteChromeTrace
    // handles the formatting; Emit re-stamps ts sequentially, preserving
    // the original order on the chrome timeline.
    sgm::TraceLog log;
    std::ofstream out(options.chrome_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", options.chrome_out.c_str());
      return 1;
    }
    for (sgm::TraceEvent& event : events) {
      log.SetCycle(event.cycle);
      log.Emit(event.cat, event.name, event.actor, std::move(event.args));
    }
    log.WriteChromeTrace(out);
    std::printf("wrote %zu events to %s\n", events.size(),
                options.chrome_out.c_str());
    return 0;
  }

  if (options.print_matches) return 0;

  // Summary mode.
  long matched = 0;
  for (const auto& [cat, names] : by_cat_name) {
    for (const auto& [name, count] : names) matched += count;
  }
  std::printf("%s: %ld events (%ld lines)\n", options.file.c_str(), matched,
              total_lines);
  if (matched == 0) {
    if (options.validate) std::printf("validation: OK\n");
    return 0;
  }
  std::printf("cycles %ld..%ld, %zu actors\n", min_cycle, max_cycle,
              actors.size());
  for (const auto& [cat, names] : by_cat_name) {
    long cat_total = 0;
    for (const auto& [name, count] : names) cat_total += count;
    std::printf("  %-12s %6ld\n", cat.c_str(), cat_total);
    for (const auto& [name, count] : names) {
      std::printf("    %-24s %6ld\n", name.c_str(), count);
    }
  }
  if (options.validate) std::printf("validation: OK\n");
  return 0;
}

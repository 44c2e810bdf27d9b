#include "obs/trace_merge.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <set>

#include "obs/json.h"

namespace sgm {

namespace {

const TraceArg* FindArg(const TraceEvent& event, const char* key) {
  for (const TraceArg& arg : event.args) {
    if (arg.key == key) return &arg;
  }
  return nullptr;
}

std::int64_t IntArg(const TraceEvent& event, const char* key) {
  const TraceArg* arg = FindArg(event, key);
  if (arg == nullptr || arg->kind != TraceArg::Kind::kInt) return 0;
  return arg->int_value;
}

std::string StringArg(const TraceEvent& event, const char* key) {
  const TraceArg* arg = FindArg(event, key);
  if (arg == nullptr || arg->kind != TraceArg::Kind::kString) return "";
  return arg->string_value;
}

// Integer ranges as [min, end) doubles. Both bounds are powers of two, so
// they convert exactly; a double outside its target type's range must be
// rejected before the cast, which would be undefined behaviour.
constexpr double kLongMin =
    static_cast<double>(std::numeric_limits<long>::min());
constexpr double kLongEnd = -kLongMin;
constexpr double kIntMin = static_cast<double>(std::numeric_limits<int>::min());
constexpr double kIntEnd = -kIntMin;

bool IsIntegerIn(double number, double min, double end) {
  return number >= min && number < end && number == std::trunc(number);
}

/// Reads the optional integer member `key` of a trace line into `out`
/// (`fallback` when absent). Fails, naming the key, when the member is not
/// an integer in [min, end).
bool ReadIntegerField(const JsonValue& line, const char* key, long fallback,
                      double min, double end, long* out, std::string* error) {
  const JsonValue* field = line.Find(key);
  if (field == nullptr) {
    *out = fallback;
    return true;
  }
  if (!field->is_number() || !IsIntegerIn(field->number_value(), min, end)) {
    if (error != nullptr) {
      *error = std::string("\"") + key + "\" is not an integer in range";
    }
    return false;
  }
  *out = static_cast<long>(field->number_value());
  return true;
}

struct SpanNode {
  std::int64_t id = 0;
  std::int64_t parent = 0;
  std::string label;
  std::string trigger;
  long events = 0;
  long last_ts_rank = -1;  ///< merged-order rank of the last event
  std::set<std::string> procs;
  std::vector<std::int64_t> children;
};

long SubtreeEnd(const std::map<std::int64_t, SpanNode>& spans,
                std::int64_t id) {
  const SpanNode& node = spans.at(id);
  long end = node.last_ts_rank;
  for (const std::int64_t child : node.children) {
    end = std::max(end, SubtreeEnd(spans, child));
  }
  return end;
}

void CollectSubtree(const std::map<std::int64_t, SpanNode>& spans,
                    std::int64_t id, long* span_count, long* event_count,
                    std::set<std::string>* procs) {
  const SpanNode& node = spans.at(id);
  *span_count += 1;
  *event_count += node.events;
  procs->insert(node.procs.begin(), node.procs.end());
  for (const std::int64_t child : node.children) {
    CollectSubtree(spans, child, span_count, event_count, procs);
  }
}

}  // namespace

bool ParseTraceEventLine(const std::string& line, TraceEvent* event,
                         std::string* error) {
  const Result<JsonValue> parsed = JsonValue::Parse(line);
  if (!parsed.ok()) {
    if (error != nullptr) *error = parsed.status().message();
    return false;
  }
  const JsonValue& value = parsed.ValueOrDie();
  if (!value.is_object()) {
    if (error != nullptr) *error = "trace line is not a JSON object";
    return false;
  }
  long actor = 0;
  if (!ReadIntegerField(value, "ts", 0, kLongMin, kLongEnd, &event->ts,
                        error) ||
      !ReadIntegerField(value, "cycle", 0, kLongMin, kLongEnd, &event->cycle,
                        error) ||
      !ReadIntegerField(value, "actor", 0, kIntMin, kIntEnd, &actor, error) ||
      !ReadIntegerField(value, "tepoch", -1, kLongMin, kLongEnd,
                        &event->epoch, error)) {
    return false;
  }
  event->actor = static_cast<int>(actor);
  if (const JsonValue* cat = value.Find("cat")) {
    event->cat = cat->string_value();
  }
  if (const JsonValue* name = value.Find("name")) {
    event->name = name->string_value();
  }
  if (const JsonValue* proc = value.Find("proc")) {
    event->proc = proc->string_value();
  }
  if (const JsonValue* args = value.Find("args")) {
    for (const auto& [key, arg] : args->object()) {
      if (arg.is_string()) {
        event->args.emplace_back(key, arg.string_value());
      } else if (arg.is_number()) {
        // Integral values inside int64's range round-trip as int args;
        // anything else (fractions, 1e19) stays a double.
        const double number = arg.number_value();
        if (IsIntegerIn(number, kLongMin, kLongEnd)) {
          event->args.emplace_back(key, static_cast<std::int64_t>(number));
        } else {
          event->args.emplace_back(key, number);
        }
      }
    }
  }
  return true;
}

Status LoadTraceJsonl(const std::string& path,
                      const std::string& fallback_proc, bool validate,
                      std::vector<TraceEvent>* out) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open trace file " + path);
  }
  std::string line;
  long line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::string error;
    if (validate && !ValidateTraceJsonLine(line, &error)) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_number) +
                                     ": invalid event: " + error);
    }
    TraceEvent event;
    if (!ParseTraceEventLine(line, &event, &error)) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_number) +
                                     ": unparseable event: " + error);
    }
    if (event.proc.empty()) event.proc = fallback_proc;
    out->push_back(std::move(event));
  }
  return Status::OK();
}

Status LoadTraceJsonlTolerant(const std::string& path,
                              const std::string& fallback_proc, bool validate,
                              std::vector<TraceEvent>* out,
                              std::string* warning) {
  if (warning != nullptr) warning->clear();
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open trace file " + path);
  }
  // Two passes over the line list: a bad line is only "the torn tail" if no
  // well-formed line follows it, which a streaming loop can't know yet.
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  long last_content = -1;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].empty()) last_content = static_cast<long>(i);
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    std::string error;
    TraceEvent event;
    const bool bad = (validate && !ValidateTraceJsonLine(lines[i], &error)) ||
                     !ParseTraceEventLine(lines[i], &event, &error);
    if (bad) {
      const std::string where = path + ":" + std::to_string(i + 1);
      if (static_cast<long>(i) == last_content) {
        if (warning != nullptr) {
          *warning = where + ": dropped torn final line (" + error + ")";
        }
        break;
      }
      return Status::InvalidArgument(where + ": invalid event: " + error);
    }
    if (event.proc.empty()) event.proc = fallback_proc;
    out->push_back(std::move(event));
  }
  return Status::OK();
}

std::vector<TraceEvent> MergeTraceTimelines(
    std::vector<std::vector<TraceEvent>> logs) {
  struct Keyed {
    long cycle;
    std::int64_t span;
    std::size_t log_index;
    long ts;
    TraceEvent event;
  };
  std::vector<Keyed> keyed;
  std::size_t total = 0;
  for (const auto& log : logs) total += log.size();
  keyed.reserve(total);
  for (std::size_t log_index = 0; log_index < logs.size(); ++log_index) {
    for (TraceEvent& event : logs[log_index]) {
      // Span-less events (local alarms, heartbeats, session control) sort
      // before the cascades of the same cycle they trigger or accompany.
      const std::int64_t span = IntArg(event, "span");
      keyed.push_back(
          Keyed{event.cycle, span, log_index, event.ts, std::move(event)});
    }
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& a, const Keyed& b) {
                     if (a.cycle != b.cycle) return a.cycle < b.cycle;
                     if (a.span != b.span) return a.span < b.span;
                     if (a.log_index != b.log_index) {
                       return a.log_index < b.log_index;
                     }
                     return a.ts < b.ts;
                   });
  std::vector<TraceEvent> merged;
  merged.reserve(keyed.size());
  for (Keyed& k : keyed) merged.push_back(std::move(k.event));
  return merged;
}

SpanForestSummary SummarizeSpanForest(const std::vector<TraceEvent>& events) {
  SpanForestSummary summary;
  std::map<std::int64_t, SpanNode> spans;
  for (std::size_t rank = 0; rank < events.size(); ++rank) {
    const TraceEvent& event = events[rank];
    const std::int64_t id = IntArg(event, "span");
    if (id == 0) continue;
    ++summary.span_events;
    SpanNode& node = spans[id];
    node.id = id;
    if (node.label.empty()) {
      node.label = event.name == "msg_send"
                       ? "send:" + StringArg(event, "type")
                       : event.name;
    }
    if (event.name == "sync_cycle_begin") {
      node.label = "sync_cycle";
      node.trigger = StringArg(event, "trigger");
    }
    const std::int64_t parent = IntArg(event, "parent");
    if (parent != 0) node.parent = parent;
    node.events += 1;
    node.last_ts_rank = static_cast<long>(rank);
    if (!event.proc.empty()) node.procs.insert(event.proc);
  }

  for (auto& [id, node] : spans) {
    if (node.parent == 0) continue;
    auto parent = spans.find(node.parent);
    if (parent == spans.end()) {
      summary.orphans.push_back(
          "orphan span " + std::to_string(id) + " (" + node.label +
          "): parent " + std::to_string(node.parent) +
          " never appears as a span");
    } else {
      parent->second.children.push_back(id);
    }
  }

  summary.spans = static_cast<long>(spans.size());
  for (const auto& [id, node] : spans) {
    (void)id;
    if (node.procs.size() > 1) ++summary.cross_process_spans;
  }

  for (const auto& [id, node] : spans) {
    if (node.parent != 0) continue;
    ++summary.roots;
    SpanForestSummary::Root root;
    root.span = id;
    root.label = node.label;
    root.trigger = node.trigger;
    std::set<std::string> procs;
    CollectSubtree(spans, id, &root.spans, &root.events, &procs);
    root.procs.assign(procs.begin(), procs.end());

    // Critical path: from the root, repeatedly descend into the child
    // whose subtree ends last (in merged order); stop when the current
    // span outlives every child subtree — the same rule as
    // trace_inspect --spans, with merged-order ranks standing in for the
    // single-process logical clock.
    std::set<std::string> path_procs;
    std::int64_t at = id;
    for (;;) {
      const SpanNode& here = spans.at(at);
      path_procs.insert(here.procs.begin(), here.procs.end());
      std::int64_t next = 0;
      long next_end = here.last_ts_rank;
      for (const std::int64_t child : here.children) {
        const long end = SubtreeEnd(spans, child);
        if (end > next_end) {
          next_end = end;
          next = child;
        }
      }
      if (next == 0) break;
      at = next;
    }
    root.critical_path_procs.assign(path_procs.begin(), path_procs.end());
    summary.root_details.push_back(std::move(root));
  }
  return summary;
}

}  // namespace sgm

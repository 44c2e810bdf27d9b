// Tests for cross-process trace aggregation (obs/trace_merge.h): the
// causal merge ordering (cycle → span → input order → per-process ts),
// proc/tepoch round-tripping through JSONL, fallback process labels,
// span-forest summarization over a merged timeline, cross-process span
// detection and orphan reporting.

#include "obs/trace_merge.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "obs/trace.h"

namespace sgm {
namespace {

/// Builds one process's log through a real TraceLog so the events carry
/// the same stamps (ts, proc, tepoch) the runtime produces.
class LogBuilder {
 public:
  explicit LogBuilder(const std::string& proc) { log_.SetProcess(proc); }

  LogBuilder& Cycle(long cycle) {
    log_.SetCycle(cycle);
    return *this;
  }
  LogBuilder& Epoch(long epoch) {
    log_.SetEpoch(epoch);
    return *this;
  }
  LogBuilder& Emit(const std::string& cat, const std::string& name, int actor,
                   std::vector<TraceArg> args = {}) {
    log_.Emit(cat, name, actor, std::move(args));
    return *this;
  }
  std::vector<TraceEvent> events() const { return log_.events(); }

 private:
  TraceLog log_;
};

TEST(MergeTraceTimelinesTest, OrdersByCycleThenSpanThenInputOrder) {
  // Coordinator mints span 5 in cycle 2 and span 9 in cycle 3; site 0's
  // echoes of span 5 carry later per-process ts but must interleave by
  // cycle and span, with the coordinator's events first within a span.
  LogBuilder coord("coordinator");
  coord.Cycle(2)
      .Emit("protocol", "sync_cycle_begin", -1,
            {{"span", 5}, {"trigger", std::string("scheduled")}})
      .Cycle(3)
      .Emit("protocol", "sync_cycle_begin", -1,
            {{"span", 9}, {"trigger", std::string("local_violation")}});
  LogBuilder site("site-0");
  site.Cycle(2)
      .Emit("transport", "msg_send", 0,
            {{"type", std::string("DriftReport")}, {"span", 5}, {"bytes", 40}})
      .Cycle(3)
      .Emit("transport", "msg_send", 0,
            {{"type", std::string("DriftReport")}, {"span", 9}, {"bytes", 40}});

  const std::vector<TraceEvent> merged =
      MergeTraceTimelines({coord.events(), site.events()});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].proc, "coordinator");  // span 5: coordinator first
  EXPECT_EQ(merged[0].cycle, 2);
  EXPECT_EQ(merged[1].proc, "site-0");
  EXPECT_EQ(merged[1].cycle, 2);
  EXPECT_EQ(merged[2].proc, "coordinator");  // then cycle 3
  EXPECT_EQ(merged[3].proc, "site-0");
}

TEST(MergeTraceTimelinesTest, SpanlessEventsSortBeforeCascades) {
  LogBuilder coord("coordinator");
  coord.Cycle(4).Emit("protocol", "sync_cycle_begin", -1, {{"span", 7}});
  LogBuilder site("site-1");
  site.Cycle(4).Emit("protocol", "local_alarm", 1);  // no span: the trigger
  const std::vector<TraceEvent> merged =
      MergeTraceTimelines({coord.events(), site.events()});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].name, "local_alarm");  // cause before effect
  EXPECT_EQ(merged[1].name, "sync_cycle_begin");
}

TEST(MergeTraceTimelinesTest, PreservesPerProcessTsWithoutRestamping) {
  LogBuilder site("site-0");
  site.Cycle(0)
      .Emit("reliability", "heartbeat", 0)
      .Emit("reliability", "heartbeat", 0);
  const std::vector<TraceEvent> merged = MergeTraceTimelines({site.events()});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].ts, 0);
  EXPECT_EQ(merged[1].ts, 1);
}

TEST(ParseTraceEventLineTest, RoundTripsProcAndEpochStamps) {
  LogBuilder builder("site-3");
  builder.Cycle(11).Epoch(4).Emit(
      "protocol", "anchor_applied", 3,
      {{"epoch", 4}, {"source", std::string("checkpoint")}});
  std::ostringstream line;
  TraceLog::AppendEventJson(builder.events()[0], line);

  TraceEvent parsed;
  std::string error;
  ASSERT_TRUE(ParseTraceEventLine(line.str(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.proc, "site-3");
  EXPECT_EQ(parsed.epoch, 4);
  EXPECT_EQ(parsed.cycle, 11);
  EXPECT_EQ(parsed.name, "anchor_applied");

  // And the stamped line still passes the schema validator.
  EXPECT_TRUE(ValidateTraceJsonLine(line.str(), &error)) << error;
}

TEST(ParseTraceEventLineTest, StampsAreOmittedWhenUnset) {
  // A log with no process label / epoch must serialize exactly as the
  // pre-stamping format — the byte-compatibility contract for existing
  // single-process traces.
  TraceLog log;
  log.Emit("reliability", "heartbeat", 2);
  std::ostringstream line;
  TraceLog::AppendEventJson(log.events()[0], line);
  EXPECT_EQ(line.str(),
            "{\"ts\":0,\"cycle\":0,\"cat\":\"reliability\","
            "\"name\":\"heartbeat\",\"actor\":2,\"args\":{}}");
}

// Trace files are outside input: a structural integer out of its field's
// range (or not an integer at all) rejects the line, naming the key,
// instead of reaching an undefined float-to-integer conversion.
TEST(ParseTraceEventLineTest, RejectsStructuralIntegersOutOfRange) {
  const auto line = [](const std::string& key, const std::string& value) {
    std::string text =
        R"({"ts":0,"cycle":0,"cat":"run","name":"run_begin","actor":0,)"
        R"("tepoch":1,"args":{}})";
    const std::string field = "\"" + key + "\":";
    const std::size_t at = text.find(field) + field.size();
    return text.replace(at, text.find_first_of(",}", at) - at, value);
  };
  const std::pair<std::string, std::string> bad[] = {
      {"actor", "1e10"},       {"actor", "2147483648"}, {"actor", "-2.5"},
      {"ts", "1e19"},          {"ts", "-1e300"},        {"cycle", "1.5"},
      {"cycle", "\"7\""},      {"tepoch", "9.3e18"},    {"tepoch", "1e999"},
  };
  for (const auto& [key, value] : bad) {
    TraceEvent event;
    std::string error;
    EXPECT_FALSE(ParseTraceEventLine(line(key, value), &event, &error))
        << key << "=" << value;
    EXPECT_NE(error.find(key), std::string::npos) << error;
  }
  TraceEvent event;
  std::string error;
  ASSERT_TRUE(ParseTraceEventLine(line("actor", "-2147483648"), &event,
                                  &error))
      << error;
  EXPECT_EQ(event.actor, -2147483647 - 1);
  ASSERT_TRUE(ParseTraceEventLine(line("ts", "-9223372036854775808"), &event,
                                  &error))
      << error;
  EXPECT_EQ(event.ts, std::numeric_limits<long>::min());
}

TEST(ParseTraceEventLineTest, ArgsOutsideInt64StayDoubles) {
  TraceEvent event;
  std::string error;
  ASSERT_TRUE(ParseTraceEventLine(
      R"({"ts":0,"cycle":0,"cat":"run","name":"cell_begin","actor":-1,)"
      R"("args":{"big":1e19,"seed":42,"drop":0.5,"low":-9223372036854775808}})",
      &event, &error))
      << error;
  ASSERT_EQ(event.args.size(), 4u);
  EXPECT_EQ(event.args[0].kind, TraceArg::Kind::kDouble);
  EXPECT_EQ(event.args[0].double_value, 1e19);
  EXPECT_EQ(event.args[1].kind, TraceArg::Kind::kInt);
  EXPECT_EQ(event.args[1].int_value, 42);
  EXPECT_EQ(event.args[2].kind, TraceArg::Kind::kDouble);
  EXPECT_EQ(event.args[3].kind, TraceArg::Kind::kInt);
  EXPECT_EQ(event.args[3].int_value, std::numeric_limits<std::int64_t>::min());
}

TEST(LoadTraceJsonlTest, AppliesFallbackProcAndValidates) {
  const std::string path = ::testing::TempDir() + "/merge_load.jsonl";
  {
    std::ofstream out(path);
    out << "{\"ts\":0,\"cycle\":1,\"cat\":\"protocol\",\"name\":\"x\","
           "\"actor\":0,\"args\":{}}\n";
    out << "{\"ts\":1,\"cycle\":1,\"cat\":\"protocol\",\"name\":\"y\","
           "\"actor\":0,\"proc\":\"stamped\",\"args\":{}}\n";
  }
  std::vector<TraceEvent> events;
  ASSERT_TRUE(LoadTraceJsonl(path, "site0", false, &events).ok());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].proc, "site0");   // fallback filled in
  EXPECT_EQ(events[1].proc, "stamped");  // explicit stamp wins
  std::remove(path.c_str());
}

TEST(LoadTraceJsonlTest, ValidateRejectsMalformedLines) {
  const std::string path = ::testing::TempDir() + "/merge_bad.jsonl";
  {
    std::ofstream out(path);
    out << "{\"ts\":0}\n";  // missing required keys
  }
  std::vector<TraceEvent> events;
  EXPECT_FALSE(LoadTraceJsonl(path, "p", true, &events).ok());
  std::remove(path.c_str());
}

// ── Tolerant loading (crash-adjacent files) ──────────────────────────────
//
// A process that dies mid-write leaves an empty file or a torn final line;
// the tolerant loader used by trace_inspect --merge must shrug at both
// while still rejecting genuine mid-file corruption.

const char kGoodLine[] =
    "{\"ts\":0,\"cycle\":1,\"cat\":\"reliability\",\"name\":\"heartbeat\","
    "\"actor\":2,\"args\":{}}";

TEST(LoadTraceJsonlTolerantTest, EmptyFileYieldsZeroEventsNoWarning) {
  const std::string path = ::testing::TempDir() + "/merge_empty.jsonl";
  { std::ofstream out(path); }
  std::vector<TraceEvent> events;
  std::string warning;
  ASSERT_TRUE(
      LoadTraceJsonlTolerant(path, "p", true, &events, &warning).ok());
  EXPECT_TRUE(events.empty());
  EXPECT_TRUE(warning.empty());
  std::remove(path.c_str());
}

TEST(LoadTraceJsonlTolerantTest, DropsTornFinalLineWithWarning) {
  const std::string path = ::testing::TempDir() + "/merge_torn.jsonl";
  {
    std::ofstream out(path);
    out << kGoodLine << "\n";
    out << "{\"ts\":1,\"cycle\":1,\"cat\":\"reli";  // cut mid-write, no \n
  }
  std::vector<TraceEvent> events;
  std::string warning;
  ASSERT_TRUE(
      LoadTraceJsonlTolerant(path, "site-2", true, &events, &warning).ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "heartbeat");
  EXPECT_EQ(events[0].proc, "site-2");
  EXPECT_NE(warning.find(":2"), std::string::npos) << warning;
  EXPECT_NE(warning.find("torn"), std::string::npos) << warning;
  std::remove(path.c_str());
}

TEST(LoadTraceJsonlTolerantTest, MidFileCorruptionStillFails) {
  const std::string path = ::testing::TempDir() + "/merge_midbad.jsonl";
  {
    std::ofstream out(path);
    out << "not json at all\n";
    out << kGoodLine << "\n";
  }
  std::vector<TraceEvent> events;
  std::string warning;
  const Status loaded =
      LoadTraceJsonlTolerant(path, "p", true, &events, &warning);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.message().find(":1"), std::string::npos)
      << loaded.message();
  std::remove(path.c_str());
}

TEST(LoadTraceJsonlTolerantTest, MissingFileIsNotFound) {
  std::vector<TraceEvent> events;
  std::string warning;
  const Status loaded = LoadTraceJsonlTolerant(
      ::testing::TempDir() + "/definitely-missing.jsonl", "p", true, &events,
      &warning);
  EXPECT_EQ(loaded.code(), StatusCode::kNotFound);
}

TEST(SummarizeSpanForestTest, DetectsCrossProcessSpansAndCriticalPath) {
  // Probe cascade: the coordinator mints span 1 (root) and probe span 2;
  // sites answer on span 2. Span 2's events come from three processes —
  // the cross-process edge — and the critical path runs through it.
  LogBuilder coord("coordinator");
  coord.Cycle(5)
      .Emit("protocol", "sync_cycle_begin", -1,
            {{"span", 1}, {"trigger", std::string("local_violation")}})
      .Emit("transport", "msg_send", -1,
            {{"type", std::string("ProbeRequest")},
             {"span", 2},
             {"parent", 1},
             {"bytes", 24}});
  LogBuilder site0("site-0");
  site0.Cycle(5).Emit(
      "transport", "msg_send", 0,
      {{"type", std::string("DriftReport")}, {"span", 2}, {"parent", 1},
       {"bytes", 48}});
  LogBuilder site1("site-1");
  site1.Cycle(5).Emit(
      "transport", "msg_send", 1,
      {{"type", std::string("DriftReport")}, {"span", 2}, {"parent", 1},
       {"bytes", 48}});

  const std::vector<TraceEvent> merged = MergeTraceTimelines(
      {coord.events(), site0.events(), site1.events()});
  const SpanForestSummary forest = SummarizeSpanForest(merged);
  EXPECT_EQ(forest.spans, 2);
  EXPECT_EQ(forest.roots, 1);
  EXPECT_EQ(forest.cross_process_spans, 1);
  EXPECT_TRUE(forest.orphans.empty());
  ASSERT_EQ(forest.root_details.size(), 1u);
  const SpanForestSummary::Root& root = forest.root_details[0];
  EXPECT_EQ(root.label, "sync_cycle");
  EXPECT_EQ(root.trigger, "local_violation");
  EXPECT_EQ(root.spans, 2);
  // The cascade's critical path crosses from the coordinator into the
  // site processes that answered last.
  EXPECT_GE(root.critical_path_procs.size(), 2u);
}

TEST(SummarizeSpanForestTest, ReportsOrphans) {
  LogBuilder site("site-0");
  site.Cycle(2).Emit("transport", "msg_send", 0,
                     {{"type", std::string("DriftReport")},
                      {"span", 44},
                      {"parent", 99},  // parent never minted anywhere
                      {"bytes", 48}});
  const SpanForestSummary forest =
      SummarizeSpanForest(MergeTraceTimelines({site.events()}));
  ASSERT_EQ(forest.orphans.size(), 1u);
  EXPECT_NE(forest.orphans[0].find("99"), std::string::npos);
}

}  // namespace
}  // namespace sgm

// TraceLog: logical timestamps, JSONL schema round-trip through the
// validator, Chrome trace_event output shape, and escaping.

#include "obs/trace.h"

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/json.h"

namespace sgm {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(TraceLogTest, TimestampsAreMonotoneAndCycleStamped) {
  TraceLog log;
  log.Emit("run", "run_begin", -1);
  log.SetCycle(7);
  log.Emit("reliability", "heartbeat", 3);
  log.Emit("protocol", "epoch_bump", -1, {{"epoch", 2}});

  const std::vector<TraceEvent> events = log.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ts, 0);
  EXPECT_EQ(events[0].cycle, 0);
  EXPECT_EQ(events[1].ts, 1);
  EXPECT_EQ(events[1].cycle, 7);
  EXPECT_EQ(events[2].ts, 2);
  EXPECT_EQ(events[2].actor, -1);
  ASSERT_EQ(events[2].args.size(), 1u);
  EXPECT_EQ(events[2].args[0].key, "epoch");
  EXPECT_EQ(events[2].args[0].int_value, 2);
}

// One event of every catalog entry, with its required args, must survive
// the JSONL writer → line validator round trip. This is the test that
// keeps writer, catalog and docs/OBSERVABILITY.md aligned.
TEST(TraceLogTest, EveryCatalogEventValidatesAfterJsonlRoundTrip) {
  TraceLog log;
  log.SetCycle(12);
  log.Emit("protocol", "local_alarm", 4);
  log.Emit("protocol", "probe_begin", -1, {{"epoch", 3}});
  log.Emit("protocol", "partial_resolution", -1);
  log.Emit("protocol", "one_d_resolution", -1);
  log.Emit("protocol", "full_sync_begin", -1, {{"epoch", 3}});
  log.Emit("protocol", "full_sync_complete", -1,
           {{"epoch", 3}, {"degraded", 0}});
  log.Emit("protocol", "sync_rerequest", -1, {{"epoch", 3}, {"site", 2}});
  log.Emit("protocol", "epoch_bump", -1, {{"epoch", 4}});
  log.Emit("protocol", "anchor_applied", 2,
           {{"epoch", 4}, {"source", "new_estimate"}});
  log.Emit("protocol", "epoch_gap", 2, {{"from_epoch", 2}, {"to_epoch", 4}});
  log.Emit("protocol", "stale_epoch_drop", 2, {{"msg_epoch", 1}});
  log.Emit("protocol", "late_report", -1, {{"site", 5}});
  log.Emit("reliability", "heartbeat", 0);
  log.Emit("reliability", "rejoin_request", 1);
  log.Emit("reliability", "rejoin_grant", 1, {{"epoch", 4}});
  log.Emit("reliability", "retransmit", 0,
           {{"sender", 0}, {"seq", 17}, {"attempt", 2}});
  log.Emit("reliability", "give_up", 0, {{"sender", 0}, {"seq", 17}});
  log.Emit("reliability", "duplicate_suppressed", 3,
           {{"sender", 1}, {"seq", 9}});
  log.Emit("failure", "heartbeat_miss", 6, {{"misses", 2}});
  log.Emit("failure", "suspect", 6, {{"misses", 4}});
  log.Emit("failure", "dead", 6, {{"deaths", 1}});
  log.Emit("failure", "unreachable", 6);
  log.Emit("failure", "quarantined", 6, {{"until_cycle", 40}});
  log.Emit("failure", "rejoin_begin", 6);
  log.Emit("failure", "rejoin_complete", 6);
  log.Emit("fault", "site_crash", 8);
  log.Emit("fault", "site_recover", 8);
  log.Emit("fault", "drop", 8, {{"type", "Report"}});
  log.Emit("fault", "duplicate", 8, {{"type", "Ack"}});
  log.Emit("fault", "delay", 8, {{"type", "Probe"}, {"rounds", 2}});
  log.Emit("run", "run_begin", -1);
  log.Emit("run", "cell_begin", -1, {{"seed", 1}, {"drop", 0.3}});

  std::ostringstream out;
  log.WriteJsonl(out);
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), log.size());
  for (const std::string& line : lines) {
    std::string error;
    EXPECT_TRUE(ValidateTraceJsonLine(line, &error)) << line << ": " << error;
  }
}

TEST(TraceValidatorTest, RejectsMalformedLines) {
  std::string error;
  EXPECT_FALSE(ValidateTraceJsonLine("not json", &error));
  EXPECT_FALSE(ValidateTraceJsonLine("[1,2]", &error));
  // Missing structural keys.
  EXPECT_FALSE(ValidateTraceJsonLine(
      R"({"cycle":0,"cat":"run","name":"run_begin","actor":0,"args":{}})",
      &error));
  // Unknown event name.
  EXPECT_FALSE(ValidateTraceJsonLine(
      R"({"ts":0,"cycle":0,"cat":"run","name":"bogus","actor":0,"args":{}})",
      &error));
  EXPECT_NE(error.find("unknown event"), std::string::npos);
  // Wrong category for a known name.
  EXPECT_FALSE(ValidateTraceJsonLine(
      R"({"ts":0,"cycle":0,"cat":"fault","name":"heartbeat","actor":0,)"
      R"("args":{}})",
      &error));
  // Missing required arg.
  EXPECT_FALSE(ValidateTraceJsonLine(
      R"({"ts":0,"cycle":0,"cat":"protocol","name":"epoch_bump","actor":0,)"
      R"("args":{}})",
      &error));
  EXPECT_NE(error.find("epoch"), std::string::npos);
  // Extra args beyond the required set are allowed.
  EXPECT_TRUE(ValidateTraceJsonLine(
      R"({"ts":0,"cycle":0,"cat":"protocol","name":"epoch_bump","actor":0,)"
      R"("args":{"epoch":1,"extra":"ok"}})",
      &error))
      << error;
}

TEST(TraceLogTest, ChromeTraceParsesAndNamesThreads) {
  TraceLog log;
  log.SetCycle(5);
  log.Emit("protocol", "epoch_bump", -1, {{"epoch", 1}});
  log.Emit("reliability", "heartbeat", 2);

  std::ostringstream out;
  log.WriteChromeTrace(out);
  auto parsed = JsonValue::Parse(out.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue* events = parsed.ValueOrDie().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // 2 thread_name metadata rows (coordinator + site 2) + 2 instant events.
  ASSERT_EQ(events->array().size(), 4u);

  const JsonValue& coordinator_meta = events->array()[0];
  EXPECT_EQ(coordinator_meta.Find("ph")->string_value(), "M");
  EXPECT_DOUBLE_EQ(coordinator_meta.NumberOr("tid", -1), 0.0);  // actor -1
  EXPECT_EQ(coordinator_meta.Find("args")->Find("name")->string_value(),
            "coordinator");

  const JsonValue& instant = events->array()[2];
  EXPECT_EQ(instant.Find("name")->string_value(), "epoch_bump");
  EXPECT_EQ(instant.Find("ph")->string_value(), "i");
  // The cycle rides along as an arg on every instant event.
  EXPECT_DOUBLE_EQ(instant.Find("args")->NumberOr("cycle", -1), 5.0);
}

std::string Jsonl(const TraceLog& log) {
  std::ostringstream out;
  log.WriteJsonl(out);
  return out.str();
}

/// Every argument key some catalog row requires, with a value of the right
/// kind, so any event carrying them validates (extra args are allowed).
/// `span` adds span/parent args, possibly tagged unsampled.
std::vector<TraceArg> CatalogArgs(std::optional<std::int64_t> span) {
  std::vector<TraceArg> args;
  if (span) {
    args.emplace_back("span", *span);
    args.emplace_back("parent", *span);
  }
  for (const char* key :
       {"epoch", "degraded", "site", "from_epoch", "to_epoch", "msg_epoch",
        "sender", "seq", "attempt", "dest", "misses", "deaths", "until_cycle",
        "since_cycle", "staleness_cycles", "bytes", "rounds", "wal_replayed",
        "grants", "discarded", "deadline_ms", "missed", "quarantined",
        "missing", "fd", "ms"}) {
    args.emplace_back(key, 3);
  }
  for (const char* key :
       {"trigger", "source", "type", "kind", "metric", "reason"}) {
    args.emplace_back(key, "x");
  }
  for (const char* key : {"value", "mean", "z"}) args.emplace_back(key, 0.5);
  return args;
}

// Emitting by id and emitting the catalog's category and name are the same
// event: byte-identical JSONL and equal self-cost counters at every
// sampling rate, with no span, an untagged span and a tagged one.
TEST(TraceLogTest, EmitByIdMatchesEmitByName) {
  const std::optional<std::int64_t> spans[] = {std::nullopt, 21,
                                               21 | kSpanUnsampledBit};
  for (const double rate : {1.0, 0.1, 0.0}) {
    TraceLog by_id;
    TraceLog by_name;
    by_id.ConfigureSampling(rate, 42);
    by_name.ConfigureSampling(rate, 42);
    for (long cycle = 0; cycle < 12; ++cycle) {
      by_id.SetCycle(cycle);
      by_name.SetCycle(cycle);
      for (std::size_t i = 0; i < kTraceEventCount; ++i) {
        const auto id = static_cast<TraceEventId>(i);
        for (int actor = -1; actor < 4; ++actor) {
          for (const auto& span : spans) {
            by_id.Emit(id, actor, CatalogArgs(span));
            by_name.Emit(TraceEventCategory(id), TraceEventName(id), actor,
                         CatalogArgs(span));
          }
        }
      }
    }
    EXPECT_EQ(Jsonl(by_id), Jsonl(by_name)) << "rate " << rate;
    const TraceLog::SelfCost a = by_id.self_cost();
    const TraceLog::SelfCost b = by_name.self_cost();
    EXPECT_EQ(a.events_emitted, b.events_emitted) << "rate " << rate;
    EXPECT_EQ(a.events_recorded, b.events_recorded) << "rate " << rate;
    EXPECT_EQ(a.events_sampled_out, b.events_sampled_out) << "rate " << rate;
    EXPECT_EQ(a.bytes_written, b.bytes_written) << "rate " << rate;
    // Every rate exercises its paths: 1.0 records everything, 0.0 still
    // records the never-sampled classes, 0.1 keeps some of everything.
    EXPECT_GT(a.events_recorded, 0) << "rate " << rate;
    EXPECT_EQ(a.events_sampled_out == 0, rate == 1.0) << "rate " << rate;
  }
}

TEST(TraceLogTest, EveryEventIdEmitsAValidLineOfItsCatalogRow) {
  for (std::size_t i = 0; i < kTraceEventCount; ++i) {
    const auto id = static_cast<TraceEventId>(i);
    TraceLog log;
    log.Emit(id, 2, CatalogArgs(21));
    const std::vector<std::string> lines = Lines(Jsonl(log));
    ASSERT_EQ(lines.size(), 1u);
    std::string error;
    EXPECT_TRUE(ValidateTraceJsonLine(lines[0], &error)) << lines[0] << error;
    const std::vector<TraceEvent> events = log.events();
    EXPECT_EQ(events[0].cat, TraceEventCategory(id));
    EXPECT_EQ(events[0].name, TraceEventName(id));
  }
}

std::string FormatNumber(double value) {
  std::ostringstream out;
  AppendJsonNumber(out, value);
  return out.str();
}

TEST(JsonNumberTest, IntegersPrintExactlyAndEverythingElseRoundTrips) {
  EXPECT_EQ(FormatNumber(0.0), "0");
  EXPECT_EQ(FormatNumber(-0.0), "0");
  EXPECT_EQ(FormatNumber(42.0), "42");
  EXPECT_EQ(FormatNumber(-7.0), "-7");
  EXPECT_EQ(FormatNumber(999999999999999.0), "999999999999999");
  EXPECT_EQ(FormatNumber(1e15), "1000000000000000");
  EXPECT_EQ(FormatNumber(0.1), "0.10000000000000001");
  EXPECT_EQ(FormatNumber(-2.5), "-2.5");
}

// Values outside long long's range are formatted without ever being
// converted to an integer (the conversion would be undefined behaviour).
TEST(JsonNumberTest, OutOfRangeValuesAreNeverConverted) {
  EXPECT_EQ(FormatNumber(1e19), "1e+19");
  EXPECT_EQ(FormatNumber(-1e19), "-1e+19");
  EXPECT_EQ(FormatNumber(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(FormatNumber(std::numeric_limits<double>::quiet_NaN()), "nan");
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(TraceLogTest, JsonlEscapesStringArgs) {
  TraceLog log;
  log.Emit("fault", "drop", 0, {{"type", "weird\"name"}});
  std::ostringstream out;
  log.WriteJsonl(out);
  std::string error;
  EXPECT_TRUE(ValidateTraceJsonLine(Lines(out.str())[0], &error)) << error;
}

}  // namespace
}  // namespace sgm

#include "obs/export.h"

#include <algorithm>
#include <fstream>

#include "core/check.h"
#include "obs/json.h"

namespace sgm {

namespace {

/// Exact q-quantile of a sample window (nearest-rank with linear
/// interpolation); the window is small, so a sort per gauge per cycle is
/// cheap and avoids estimation error in the exported series.
double WindowQuantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

template <typename T>
void TrimToWindow(std::vector<T>* history, long window) {
  if (static_cast<long>(history->size()) > window) {
    history->erase(history->begin(),
                   history->begin() +
                       (static_cast<long>(history->size()) - window));
  }
}

}  // namespace

TimeSeriesExporter::TimeSeriesExporter(TimeSeriesExporterConfig config)
    : config_(config) {
  SGM_CHECK(config_.window >= 1);
}

void TimeSeriesExporter::Sample(long cycle, const MetricRegistry& registry) {
  if (cycle == last_cycle_) return;  // on-demand re-publish, same cycle
  last_cycle_ = cycle;

  Record record;
  record.cycle = cycle;
  record.counters = registry.SnapshotCounters();
  record.gauges = registry.SnapshotGauges();

  for (const auto& [name, value] : record.counters) {
    const auto prev = prev_counters_.find(name);
    const long delta = value - (prev == prev_counters_.end() ? 0 : prev->second);
    record.delta[name] = delta;
    auto& history = delta_history_[name];
    history.push_back(delta);
    TrimToWindow(&history, config_.window);
    long sum = 0;
    for (const long d : history) sum += d;
    record.window_counts[name] = sum;
  }
  prev_counters_ = record.counters;

  for (const auto& [name, value] : record.gauges) {
    auto& history = gauge_history_[name];
    history.push_back(value);
    TrimToWindow(&history, config_.window);
    record.window_gauges[name] = {WindowQuantile(history, 0.50),
                                  WindowQuantile(history, 0.95),
                                  WindowQuantile(history, 0.99)};
  }

  if (observer_) observer_(cycle, record.delta);

  records_.push_back(std::move(record));
}

std::string PrometheusMetricName(const std::string& name) {
  std::string out = "sgm_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string PrometheusEscapeHelp(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string PrometheusEscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string PrometheusHelpText(const std::string& dotted_name) {
  struct FamilyHelp {
    const char* prefix;
    const char* help;
  };
  // Keep in sync with the metric catalog in docs/OBSERVABILITY.md.
  static const FamilyHelp kFamilies[] = {
      {"paper.", "paper-protocol cost accounting (simulator legs)"},
      {"transport.", "reliable-transport accounting (paper vs wire cost)"},
      {"coordinator.", "coordinator protocol state and sync counters"},
      {"site.", "site-node protocol state and latency scopes"},
      {"audit.", "online accuracy audit verdicts vs the lock-step oracle"},
      {"recovery.", "checkpoint write / crash-recovery lifecycle"},
      {"failure.", "failure-detector liveness verdicts"},
      {"socket.", "socket session lifecycle (hellos, disconnects, frames)"},
      {"serialization.", "wire codec encode/decode accounting"},
      {"alert.", "online anomaly-detector alerts over the metric stream"},
      {"obs.", "telemetry self-cost (trace volume, sampling, ring, ns)"},
      {"sim.", "simulation driver bookkeeping"},
  };
  for (const FamilyHelp& family : kFamilies) {
    if (dotted_name.rfind(family.prefix, 0) == 0) {
      return dotted_name + ": " + family.help;
    }
  }
  return dotted_name + ": sgm metric";
}

Status AtomicWriteFile(const std::string& path,
                       const std::function<void(std::ostream&)>& writer) {
  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp, std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open " + temp + " for writing");
    }
    writer(out);
    out.flush();
    if (!out) {
      out.close();
      std::remove(temp.c_str());
      return Status::Internal("write to " + temp + " failed");
    }
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return Status::Internal("rename " + temp + " -> " + path + " failed");
  }
  return Status::OK();
}

bool RemoveStaleTempFile(const std::string& path) {
  const std::string temp = path + ".tmp";
  return std::remove(temp.c_str()) == 0;
}

void TimeSeriesExporter::WriteJsonl(std::ostream& out) const {
  for (const Record& record : records_) {
    out << "{\"cycle\":" << record.cycle << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : record.counters) {
      out << (first ? "" : ",") << "\"" << name << "\":" << value;
      first = false;
    }
    out << "},\"delta\":{";
    first = true;
    for (const auto& [name, value] : record.delta) {
      out << (first ? "" : ",") << "\"" << name << "\":" << value;
      first = false;
    }
    out << "},\"window_counts\":{";
    first = true;
    for (const auto& [name, value] : record.window_counts) {
      out << (first ? "" : ",") << "\"" << name << "\":" << value;
      first = false;
    }
    out << "},\"window_gauges\":{";
    first = true;
    for (const auto& [name, quantiles] : record.window_gauges) {
      out << (first ? "" : ",") << "\"" << name << "\":{\"p50\":";
      AppendJsonNumber(out, quantiles[0]);
      out << ",\"p95\":";
      AppendJsonNumber(out, quantiles[1]);
      out << ",\"p99\":";
      AppendJsonNumber(out, quantiles[2]);
      out << "}";
      first = false;
    }
    out << "},\"gauges\":{";
    first = true;
    for (const auto& [name, value] : record.gauges) {
      out << (first ? "" : ",") << "\"" << name << "\":";
      AppendJsonNumber(out, value);
      first = false;
    }
    out << "}}\n";
  }
}

}  // namespace sgm

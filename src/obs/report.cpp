#include "obs/report.hpp"

#include <cstdio>
#include <fstream>

namespace sel::obs {

namespace {

/// The `metrics` section of a RunReport.
json::Value snapshot_to_json(const Snapshot& snap) {
  json::Value::Object counters;
  for (const auto& c : snap.counters) {
    counters.emplace(c.name, json::Value(c.value));
  }
  json::Value::Object gauges;
  for (const auto& g : snap.gauges) {
    gauges.emplace(g.name, json::Value(g.value));
  }
  json::Value::Object histograms;
  for (const auto& h : snap.histograms) {
    json::Value::Object hist;
    json::Value::Array bounds;
    for (const double b : h.bounds) bounds.emplace_back(b);
    json::Value::Array counts;
    for (const std::int64_t c : h.counts) counts.emplace_back(c);
    hist.emplace("bounds", std::move(bounds));
    hist.emplace("counts", std::move(counts));
    hist.emplace("count", h.count);
    hist.emplace("sum", h.sum);
    hist.emplace("min", h.min);
    hist.emplace("max", h.max);
    histograms.emplace(h.name, std::move(hist));
  }
  json::Value::Object spans;
  for (const auto& s : snap.spans) {
    json::Value::Object span;
    span.emplace("count", s.count);
    span.emplace("total_ns", s.total_ns);
    spans.emplace(s.name, std::move(span));
  }
  json::Value::Object out;
  out.emplace("counters", std::move(counters));
  out.emplace("gauges", std::move(gauges));
  out.emplace("histograms", std::move(histograms));
  out.emplace("spans", std::move(spans));
  return json::Value(std::move(out));
}

}  // namespace

json::Value RunReport::to_json() const {
  json::Value::Object out;
  out.emplace("schema_version", kSchemaVersion);
  out.emplace("experiment", experiment);
  out.emplace("git_describe", git_describe);
  json::Value::Object meta;
  for (const auto& [k, v] : metadata) meta.emplace(k, json::Value(v));
  out.emplace("metadata", std::move(meta));
  out.emplace("metrics", snapshot_to_json(snapshot));
  json::Value::Array series;
  for (const auto& point : timeseries) {
    json::Value::Object p;
    p.emplace("label", point.label);
    p.emplace("round", point.round);
    p.emplace("ts_us", point.ts_us);
    json::Value::Object values;
    for (const auto& [k, v] : point.values) values.emplace(k, v);
    p.emplace("values", std::move(values));
    series.emplace_back(std::move(p));
  }
  out.emplace("timeseries", std::move(series));
  json::Value::Object mem;
  for (const auto& [k, v] : memory) mem.emplace(k, json::Value(v));
  out.emplace("memory", std::move(mem));
  return json::Value(std::move(out));
}

bool RunReport::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  out << to_json().dump(2) << '\n';
  return out.good();
}

const std::string& git_describe() {
  static const std::string cached = [] {
    std::string result = "unknown";
    FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r");
    if (pipe != nullptr) {
      char buf[128];
      if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
        std::string line(buf);
        while (!line.empty() &&
               (line.back() == '\n' || line.back() == '\r')) {
          line.pop_back();
        }
        if (!line.empty()) result = line;
      }
      ::pclose(pipe);
    }
    return result;
  }();
  return cached;
}

std::string report_path_for_csv(const std::string& csv_path) {
  constexpr std::string_view kExt = ".csv";
  if (csv_path.size() > kExt.size() &&
      csv_path.compare(csv_path.size() - kExt.size(), kExt.size(), kExt) ==
          0) {
    return csv_path.substr(0, csv_path.size() - kExt.size()) + ".report.json";
  }
  return csv_path + ".report.json";
}

}  // namespace sel::obs

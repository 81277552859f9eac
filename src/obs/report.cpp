#include "obs/report.hpp"

#include <cstdio>
#include <fstream>

namespace sel::obs {

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
  json::Value::Array rounds;
  for (const auto& r : snap.rounds) {
    json::Value::Object round;
    round.emplace("label", r.label);
    round.emplace("round", r.round);
    round.emplace("compute_ms", r.compute_ms);
    round.emplace("deliver_ms", r.deliver_ms);
    round.emplace("messages", r.messages);
    rounds.emplace_back(std::move(round));
  }
  json::Value::Object out;
  out.emplace("counters", std::move(counters));
  out.emplace("gauges", std::move(gauges));
  out.emplace("histograms", std::move(histograms));
  out.emplace("spans", std::move(spans));
  out.emplace("rounds", std::move(rounds));
  return json::Value(std::move(out));
}

Snapshot snapshot_from_json(const json::Value& v) {
  Snapshot snap;
  for (const auto& [name, val] : v.at("counters").as_object()) {
    snap.counters.push_back({name, val.as_int64()});
  }
  for (const auto& [name, val] : v.at("gauges").as_object()) {
    snap.gauges.push_back({name, val.as_double()});
  }
  for (const auto& [name, val] : v.at("histograms").as_object()) {
    HistogramSnapshot h;
    h.name = name;
    for (const auto& b : val.at("bounds").as_array()) {
      h.bounds.push_back(b.as_double());
    }
    for (const auto& c : val.at("counts").as_array()) {
      h.counts.push_back(c.as_int64());
    }
    h.count = val.at("count").as_int64();
    h.sum = val.at("sum").as_double();
    h.min = val.at("min").as_double();
    h.max = val.at("max").as_double();
    snap.histograms.push_back(std::move(h));
  }
  for (const auto& [name, val] : v.at("spans").as_object()) {
    snap.spans.push_back(
        {name, val.at("count").as_int64(), val.at("total_ns").as_int64()});
  }
  for (const auto& r : v.at("rounds").as_array()) {
    RoundSample s;
    s.label = r.at("label").as_string();
    s.round = static_cast<std::uint64_t>(r.at("round").as_int64());
    s.compute_ms = r.at("compute_ms").as_double();
    s.deliver_ms = r.at("deliver_ms").as_double();
    s.messages = static_cast<std::uint64_t>(r.at("messages").as_int64());
    snap.rounds.push_back(std::move(s));
  }
  return snap;
}

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

RunReport RunReport::from_json(const json::Value& v) {
  RunReport rep;
  rep.experiment = v.at("experiment").as_string();
  rep.git_describe = v.at("git_describe").as_string();
  for (const auto& [k, val] : v.at("metadata").as_object()) {
    rep.metadata.emplace(k, val.as_string());
  }
  rep.snapshot = snapshot_from_json(v.at("metrics"));
  // Optional since schema v2 — v1 reports stay readable.
  if (v.contains("timeseries")) {
    for (const auto& p : v.at("timeseries").as_array()) {
      TimeSeriesPoint point;
      point.label = p.at("label").as_string();
      point.round = static_cast<std::uint64_t>(p.at("round").as_int64());
      point.ts_us = p.at("ts_us").as_int64();
      for (const auto& [k, val] : p.at("values").as_object()) {
        point.values.emplace(k, val.as_double());
      }
      rep.timeseries.push_back(std::move(point));
    }
  }
  // Optional since schema v3 — v1/v2 reports stay readable.
  if (v.contains("memory")) {
    for (const auto& [k, val] : v.at("memory").as_object()) {
      rep.memory.emplace(k, val.as_double());
    }
  }
  return rep;
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

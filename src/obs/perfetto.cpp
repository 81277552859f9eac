#include "obs/perfetto.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace sel::obs {

namespace {

constexpr std::int64_t kPeersPid = 1;
constexpr std::int64_t kRoundsPid = 2;
constexpr std::int64_t kSpansPid = 3;

std::int64_t sim_us(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e6);
}

json::Value::Object event_base(const char* ph, const char* cat,
                               std::string name, std::int64_t ts,
                               std::int64_t pid, std::int64_t tid) {
  json::Value::Object e;
  e.emplace("ph", ph);
  e.emplace("cat", cat);
  e.emplace("name", std::move(name));
  e.emplace("ts", ts);
  e.emplace("pid", pid);
  e.emplace("tid", tid);
  return e;
}

void add_process_name(json::Value::Array& events, std::int64_t pid,
                      const char* name) {
  auto e = event_base("M", "__metadata", "process_name", 0, pid, 0);
  json::Value::Object args;
  args.emplace("name", name);
  e.emplace("args", std::move(args));
  events.emplace_back(std::move(e));
}

void add_thread_name(json::Value::Array& events, std::int64_t pid,
                     std::int64_t tid, std::string name) {
  auto e = event_base("M", "__metadata", "thread_name", 0, pid, tid);
  json::Value::Object args;
  args.emplace("name", std::move(name));
  e.emplace("args", std::move(args));
  events.emplace_back(std::move(e));
}

void add_provenance(json::Value::Array& events,
                    const ProvenanceTracer::Snapshot& prov) {
  if (prov.publishes.empty() && prov.hops.empty()) return;
  add_process_name(events, kPeersPid, "peers");

  // Completion time per trace: the latest hop arrival.
  std::unordered_map<TraceId, double> completed_s;
  std::vector<std::uint32_t> peers;
  peers.reserve(prov.hops.size() * 2 + prov.publishes.size());
  for (const auto& h : prov.hops) {
    auto [it, inserted] = completed_s.try_emplace(h.trace, h.arrive_s);
    if (!inserted) it->second = std::max(it->second, h.arrive_s);
    peers.push_back(h.from);
    peers.push_back(h.to);
  }
  for (const auto& p : prov.publishes) peers.push_back(p.publisher);
  // Ascending peer id — the trace JSON must be byte-stable across runs so
  // compare_reports.py can diff traces.
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  for (const std::uint32_t p : peers) {
    add_thread_name(events, kPeersPid, p, "peer " + std::to_string(p));
  }

  for (const auto& p : prov.publishes) {
    const char* what = p.kind == TraceKind::kPlan ? "plan #" : "publish #";
    auto e = event_base("X", "provenance", what + std::to_string(p.msg),
                        sim_us(p.publish_s), kPeersPid, p.publisher);
    const auto done = completed_s.find(p.trace);
    const std::int64_t dur =
        done == completed_s.end()
            ? 0
            : std::max<std::int64_t>(
                  0, sim_us(done->second) - sim_us(p.publish_s));
    e.emplace("dur", dur);
    json::Value::Object args;
    args.emplace("trace", p.trace);
    e.emplace("args", std::move(args));
    events.emplace_back(std::move(e));
  }

  std::uint64_t flow_id = 0;
  for (const auto& h : prov.hops) {
    ++flow_id;
    const std::string msg_name = "msg " + std::to_string(h.msg);
    // The hop slice lives on the receiving peer's track and spans the
    // transfer; the flow arrow links it back to the sending peer. Retry and
    // failover hops get their own slice names so chaos runs read at a
    // glance in the Perfetto UI.
    const char* what = h.failover ? "failover d"
                       : h.attempt > 0 ? "retry d"
                                       : "hop d";
    auto slice = event_base("X", "provenance", what + std::to_string(h.depth),
                            sim_us(h.send_s), kPeersPid, h.to);
    slice.emplace("dur", std::max<std::int64_t>(
                             0, sim_us(h.arrive_s) - sim_us(h.send_s)));
    json::Value::Object args;
    args.emplace("msg", h.msg);
    args.emplace("trace", h.trace);
    args.emplace("from", static_cast<std::uint64_t>(h.from));
    args.emplace("depth", static_cast<std::uint64_t>(h.depth));
    args.emplace("attempt", static_cast<std::uint64_t>(h.attempt));
    args.emplace("relay", h.relay);
    args.emplace("delivered", h.delivered);
    args.emplace("failover", h.failover);
    slice.emplace("args", std::move(args));
    events.emplace_back(std::move(slice));

    auto start = event_base("s", "provenance", msg_name, sim_us(h.send_s),
                            kPeersPid, h.from);
    start.emplace("id", flow_id);
    events.emplace_back(std::move(start));
    auto finish = event_base("f", "provenance", msg_name, sim_us(h.arrive_s),
                             kPeersPid, h.to);
    finish.emplace("id", flow_id);
    finish.emplace("bp", "e");  // bind to the enclosing hop slice
    events.emplace_back(std::move(finish));
  }
}

/// Milliseconds under `key` in a point, as whole microseconds; 0 when the
/// point does not carry it.
std::int64_t point_us(const TimeSeriesPoint& point, const char* key) {
  const auto it = point.values.find(key);
  return it == point.values.end() ? 0 : std::llround(it->second * 1e3);
}

void add_timeseries(json::Value::Array& events,
                    const std::vector<TimeSeriesPoint>& timeseries) {
  if (timeseries.empty()) return;
  add_process_name(events, kRoundsPid, "rounds");
  std::map<std::string, std::int64_t> tids;
  const auto tid_for = [&events, &tids](const std::string& label) {
    const auto it = tids.find(label);
    if (it != tids.end()) return it->second;
    const auto tid = static_cast<std::int64_t>(tids.size());
    tids.emplace(label, tid);
    add_thread_name(events, kRoundsPid, tid, label);
    return tid;
  };

  // Phase slices: a round runs compute, then deliver, and is sampled right
  // after, so its deliver slice ends where the point is stamped.
  const auto add_phase = [&events](const TimeSeriesPoint& point,
                                   std::int64_t tid, const char* phase,
                                   std::int64_t ts, std::int64_t dur) {
    auto e = event_base("X", "rounds", phase, ts, kRoundsPid, tid);
    e.emplace("dur", dur);
    json::Value::Object args;
    args.emplace("round", point.round);
    e.emplace("args", std::move(args));
    events.emplace_back(std::move(e));
  };
  for (const auto& point : timeseries) {
    if (!point.values.contains("compute_ms")) continue;
    const std::int64_t tid = tid_for(point.label);
    const std::int64_t compute_us = point_us(point, "compute_ms");
    const std::int64_t deliver_us = point_us(point, "deliver_ms");
    const std::int64_t deliver_ts = point.ts_us - deliver_us;
    add_phase(point, tid, "compute", deliver_ts - compute_us, compute_us);
    add_phase(point, tid, "deliver", deliver_ts, deliver_us);
  }

  // Per-round metric series as counter tracks (Perfetto plots each args
  // key as its own series under the event name).
  for (const auto& point : timeseries) {
    auto e = event_base("C", "timeseries", point.label, point.ts_us,
                        kRoundsPid, tid_for(point.label));
    json::Value::Object args;
    for (const auto& [k, v] : point.values) args.emplace(k, v);
    e.emplace("args", std::move(args));
    events.emplace_back(std::move(e));
  }
}

void add_span_totals(json::Value::Array& events, const Snapshot& metrics) {
  if (metrics.spans.empty()) return;
  add_process_name(events, kSpansPid, "span totals");
  add_thread_name(events, kSpansPid, 0, "accumulated spans");
  // Begin times are not recorded for aggregate spans; lay the totals out
  // end-to-end so relative weight is visible at a glance.
  std::int64_t cursor = 0;
  for (const auto& s : metrics.spans) {
    if (s.count == 0) continue;
    auto e = event_base("X", "spans", s.name, cursor, kSpansPid, 0);
    const std::int64_t dur = std::max<std::int64_t>(1, s.total_ns / 1000);
    e.emplace("dur", dur);
    json::Value::Object args;
    args.emplace("count", s.count);
    args.emplace("total_ns", s.total_ns);
    e.emplace("args", std::move(args));
    events.emplace_back(std::move(e));
    cursor += dur;
  }
}

}  // namespace

json::Value build_trace_json(const ProvenanceTracer::Snapshot& provenance,
                             const std::vector<TimeSeriesPoint>& timeseries,
                             const Snapshot& metrics) {
  json::Value::Array events;
  add_provenance(events, provenance);
  add_timeseries(events, timeseries);
  add_span_totals(events, metrics);

  json::Value::Object doc;
  doc.emplace("traceEvents", std::move(events));
  doc.emplace("displayTimeUnit", "ms");
  json::Value::Object meta;
  meta.emplace("publishes_seen", provenance.publishes_seen);
  meta.emplace("publishes_sampled", provenance.publishes_sampled);
  meta.emplace("hops_recorded", provenance.hops_recorded);
  doc.emplace("metadata", std::move(meta));
  return json::Value(std::move(doc));
}

json::Value build_trace_json() {
  return build_trace_json(ProvenanceTracer::global().snapshot(),
                          RoundSampler::global().snapshot(),
                          MetricsRegistry::global().snapshot());
}

bool write_trace_file(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  out << build_trace_json().dump() << '\n';
  return out.good();
}

std::string trace_path_for_csv(const std::string& csv_path) {
  constexpr std::string_view kExt = ".csv";
  if (csv_path.size() > kExt.size() &&
      csv_path.compare(csv_path.size() - kExt.size(), kExt.size(), kExt) ==
          0) {
    return csv_path.substr(0, csv_path.size() - kExt.size()) + ".trace.json";
  }
  return csv_path + ".trace.json";
}

}  // namespace sel::obs

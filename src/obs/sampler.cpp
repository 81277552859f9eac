#include "obs/sampler.hpp"

#include "obs/metrics.hpp"
#include "obs/provenance.hpp"

namespace sel::obs {

void RoundSampler::sample(std::string_view label, std::uint64_t round,
                          std::map<std::string, double> gauges) {
  if (!enabled()) return;
  // Counter totals first (registry lock), then our own state.
  auto& reg = MetricsRegistry::global();
  const auto counters = reg.counters_snapshot();

  std::lock_guard lock(mu_);
  TimeSeriesPoint point;
  point.label = std::string(label);
  point.round = round;
  point.ts_us = wall_now_us();
  point.values = std::move(gauges);

  double deliveries = 0.0;
  double relay_forwards = 0.0;
  double delivery_hops = 0.0;
  for (const auto& c : counters) {
    auto [it, inserted] = prev_counters_.try_emplace(c.name, 0);
    const auto delta = c.value - it->second;
    it->second = c.value;
    if (delta == 0) continue;
    const auto d = static_cast<double>(delta);
    point.values.emplace(c.name, d);
    if (c.name == "pubsub.deliveries") deliveries = d;
    if (c.name == "pubsub.relay_forwards") relay_forwards = d;
    if (c.name == "pubsub.delivery_hops") delivery_hops = d;
  }
  if (deliveries > 0.0) {
    point.values.emplace("relay_ratio", relay_forwards / deliveries);
    point.values.emplace("avg_route_hops", delivery_hops / deliveries);
  }

  // Alg. 2 stability: the gauge tracks how many movement-carrying rounds
  // passed until the last one whose movement reached epsilon.
  const auto movement = point.values.find("id_movement");
  if (movement != point.values.end()) {
    ++movement_samples_;
    if (movement->second >= kStableEpsilon) stable_after_ = movement_samples_;
    reg.gauge("select.rounds_to_stable_ids")
        .set(static_cast<double>(stable_after_));
  }

  if (points_.size() >= kMaxPoints) {
    reg.counter("obs.timeseries_dropped").add(1);
    return;
  }
  StoredPoint stored;
  stored.label = intern(point.label);
  stored.count = static_cast<std::uint32_t>(point.values.size());
  stored.round = point.round;
  stored.ts_us = point.ts_us;
  stored.first = values_.size();
  for (const auto& [name, value] : point.values) {
    value_names_.push_back(intern(name));
    values_.push_back(value);
  }
  points_.push_back(stored);
}

std::uint32_t RoundSampler::intern(const std::string& name) {
  const auto [it, inserted] = name_ids_.try_emplace(
      name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

std::vector<TimeSeriesPoint> RoundSampler::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<TimeSeriesPoint> out;
  out.reserve(points_.size());
  for (const StoredPoint& stored : points_) {
    TimeSeriesPoint& point = out.emplace_back();
    point.label = names_[stored.label];
    point.round = stored.round;
    point.ts_us = stored.ts_us;
    for (std::size_t i = stored.first; i < stored.first + stored.count; ++i) {
      point.values.emplace_hint(point.values.end(), names_[value_names_[i]],
                                values_[i]);
    }
  }
  return out;
}

void RoundSampler::reset() {
  std::lock_guard lock(mu_);
  prev_counters_.clear();
  names_.clear();
  name_ids_.clear();
  points_.clear();
  value_names_.clear();
  values_.clear();
  movement_samples_ = 0;
  stable_after_ = 0;
}

RoundSampler& RoundSampler::global() {
  static RoundSampler sampler;
  return sampler;
}

}  // namespace sel::obs

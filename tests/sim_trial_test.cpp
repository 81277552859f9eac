#include "sim/trial.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace sel::sim {
namespace {

TEST(TrialRunner, AggregatesMetricsAcrossTrials) {
  const auto summary = run_trials(10, 1, [](std::uint64_t seed) {
    MetricMap m;
    m["constant"] = 4.0;
    m["seed_low_bit"] = static_cast<double>(seed & 1);
    return m;
  });
  EXPECT_DOUBLE_EQ(summary.mean("constant"), 4.0);
  EXPECT_EQ(summary.metrics.at("constant").count(), 10u);
  EXPECT_GE(summary.mean("seed_low_bit"), 0.0);
  EXPECT_LE(summary.mean("seed_low_bit"), 1.0);
}

TEST(TrialRunner, TrialSeedsAreDistinct) {
  std::set<std::uint64_t> seeds;
  (void)run_trials(20, 7, [&seeds](std::uint64_t seed) {
    seeds.insert(seed);
    return MetricMap{};
  });
  EXPECT_EQ(seeds.size(), 20u);
}

TEST(TrialRunner, SeedsDeterministicPerRootSeed) {
  std::vector<std::uint64_t> first;
  std::vector<std::uint64_t> second;
  (void)run_trials(5, 3, [&first](std::uint64_t s) {
    first.push_back(s);
    return MetricMap{};
  });
  (void)run_trials(5, 3, [&second](std::uint64_t s) {
    second.push_back(s);
    return MetricMap{};
  });
  EXPECT_EQ(first, second);
}

TEST(TrialRunner, DifferentRootSeedsGiveDifferentTrialSeeds) {
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  (void)run_trials(5, 1, [&a](std::uint64_t s) {
    a.push_back(s);
    return MetricMap{};
  });
  (void)run_trials(5, 2, [&b](std::uint64_t s) {
    b.push_back(s);
    return MetricMap{};
  });
  EXPECT_NE(a, b);
}

TEST(TrialRunner, CiShrinksWithMoreTrials) {
  auto noisy = [](std::uint64_t seed) {
    Rng rng(seed);
    return MetricMap{{"x", rng.uniform()}};
  };
  const auto few = run_trials(4, 11, noisy);
  const auto many = run_trials(64, 11, noisy);
  EXPECT_GT(few.ci95("x"), many.ci95("x"));
}

TEST(TrialSummary, MeanOfMissingMetricAborts) {
  const auto summary = run_trials(2, 1, [](std::uint64_t) {
    return MetricMap{{"a", 1.0}};
  });
  EXPECT_DEATH((void)summary.mean("missing"), "Precondition");
}

}  // namespace
}  // namespace sel::sim

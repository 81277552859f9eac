#include "pubsub/engine.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "fault/fault.hpp"
#include "graph/profiles.hpp"
#include "pubsub/metrics.hpp"
#include "pubsub/multipath.hpp"
#include "select/protocol.hpp"

namespace sel::pubsub {
namespace {

using overlay::PeerId;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = graph::make_dataset_graph(graph::profile_by_name("facebook"), 300, 5);
    net_ = std::make_unique<net::NetworkModel>(g_.num_nodes(), 5);
    sys_ = std::make_unique<core::SelectSystem>(g_, core::SelectParams{}, 5,
                                                net_.get());
    sys_->build();
    ps_ = std::make_unique<overlay::PubSubSystem>(*sys_);
    engine_ = std::make_unique<NotificationEngine>(*ps_, *net_);
  }

  graph::SocialGraph g_;
  std::unique_ptr<net::NetworkModel> net_;
  std::unique_ptr<core::SelectSystem> sys_;
  std::unique_ptr<overlay::PubSubSystem> ps_;
  std::unique_ptr<NotificationEngine> engine_;
};

TEST_F(EngineTest, DeliversToAllWantedSubscribers) {
  const auto id = engine_->publish(0, 0.0);
  engine_->run_all();
  const auto& rec = engine_->record(id);
  EXPECT_GT(rec.wanted, 0u);
  EXPECT_EQ(rec.delivered, rec.wanted);
  EXPECT_TRUE(rec.completed_at_s.has_value());
}

TEST_F(EngineTest, LatencyIsPositiveAndOrdered) {
  const auto id = engine_->publish(3, 1.0);
  engine_->run_all();
  const auto& rec = engine_->record(id);
  EXPECT_GT(rec.delivery_latency_s.min(), 0.0);
  EXPECT_GE(*rec.completed_at_s, 1.0 + rec.delivery_latency_s.max());
}

TEST_F(EngineTest, MatchesStaticLatencyMetric) {
  // The event-driven engine and the one-shot analytic metric walk the same
  // tree with the same transfer model, so per-subscriber latencies agree.
  const auto metrics = measure_latency(*ps_, *net_, {7});
  const auto id = engine_->publish(7, 0.0);
  engine_->run_all();
  const auto& rec = engine_->record(id);
  ASSERT_EQ(rec.delivery_latency_s.count(), metrics.per_subscriber_s.count());
  EXPECT_NEAR(rec.delivery_latency_s.mean(), metrics.per_subscriber_s.mean(),
              1e-9);
  EXPECT_NEAR(rec.delivery_latency_s.max(), metrics.per_tree_s.mean(), 1e-9);
}

TEST_F(EngineTest, ConcurrentMessagesInterleave) {
  const auto a = engine_->publish(0, 0.0);
  const auto b = engine_->publish(1, 0.5);
  const auto c = engine_->publish(2, 1.0);
  engine_->run_all();
  for (const auto id : {a, b, c}) {
    const auto& rec = engine_->record(id);
    EXPECT_EQ(rec.delivered, rec.wanted) << "message " << id;
  }
  EXPECT_EQ(engine_->stats().messages_published, 3u);
}

TEST_F(EngineTest, RunUntilDeliversPartially) {
  const auto id = engine_->publish(0, 0.0);
  engine_->run_until(0.05);  // much less than one payload transfer time
  const auto& rec = engine_->record(id);
  EXPECT_LT(rec.delivered, rec.wanted);
  engine_->run_all();
  EXPECT_EQ(rec.delivered, rec.wanted);
}

TEST_F(EngineTest, TreeCacheHitsOnRepeatPublisher) {
  engine_->publish(0, 0.0);
  engine_->publish(0, 1.0);
  engine_->publish(0, 2.0);
  engine_->run_all();
  EXPECT_EQ(engine_->stats().tree_cache_misses, 1u);
  EXPECT_EQ(engine_->stats().tree_cache_hits, 2u);
  engine_->invalidate_trees();
  engine_->publish(0, engine_->now_s());
  engine_->run_all();
  EXPECT_EQ(engine_->stats().tree_cache_misses, 2u);
}

TEST_F(EngineTest, OfflineSubscribersAreNotWanted) {
  const auto subs = ps_->subscribers_of(0);
  ASSERT_FALSE(subs.empty());
  const PeerId victim = *subs.begin();
  sys_->set_peer_online(victim, false);
  engine_->invalidate_trees();
  const auto id = engine_->publish(0, 0.0);
  engine_->run_all();
  const auto& rec = engine_->record(id);
  EXPECT_EQ(rec.delivered, rec.wanted);
  EXPECT_LT(rec.wanted, subs.size());
}

TEST_F(EngineTest, SelectHasNearZeroRelayForwards) {
  for (PeerId p = 0; p < 10; ++p) engine_->publish(p, 0.0);
  engine_->run_all();
  const auto& stats = engine_->stats();
  EXPECT_GT(stats.deliveries, 100u);
  // Relay forwards should be a tiny fraction of deliveries for SELECT.
  EXPECT_LT(static_cast<double>(stats.relay_forwards),
            0.2 * static_cast<double>(stats.deliveries));
  EXPECT_GT(stats.delivery_rate(), 0.99);
}

TEST_F(EngineTest, RecordLookupOfUnknownIdAborts) {
  EXPECT_DEATH((void)engine_->record(12345), "Precondition");
}

// Determinism of the reliable path: one fixed workload under a
// time-independent fault mix, compared message by message. The suite keeps
// the name it had beside the retired superstep mode, so its test ids stay
// stable.
class ModeEquivalenceTest : public EngineTest {
 protected:
  struct Outcome {
    EngineStats stats;
    /// Message id -> delivered subscriber set: the delivery multiset (the
    /// dedup invariant makes per-message delivery a set).
    std::map<MessageId, std::set<PeerId>> delivered;
    std::map<MessageId, std::set<PeerId>> missed;
  };

  /// Ten staggered publishes under `opts` and the drop/dup/spike mix with
  /// the retry + failover ladder armed.
  Outcome run(runtime::Options opts, std::uint64_t seed) {
    // Drops force the full retry + failover ladder, duplicates exercise
    // receiver dedup, spikes shift arrival times — none of them depend on
    // *when* a hop lands.
    fault::FaultSpec spec;
    spec.drop = 0.08;
    spec.duplicate = 0.02;
    spec.spike = 0.02;
    spec.spike_factor = 3.0;
    fault::FaultPlan plan(spec, seed, g_.num_nodes());
    NotificationEngine engine(*ps_, *net_);
    engine.set_runtime_options(opts);
    engine.set_fault_plan(&plan);
    RetryPolicy policy;
    policy.enabled = true;
    policy.ack_timeout_s = 2.0;
    engine.set_retry_policy(policy);
    engine.set_multipath_planner(
        [this](PeerId b) { return plan_multipath(*sys_, g_, b); });
    std::vector<MessageId> ids;
    for (PeerId p = 0; p < 10; ++p) {
      ids.push_back(engine.publish(p, static_cast<double>(p)));
    }
    engine.run_all();
    Outcome out;
    out.stats = engine.stats();
    for (const auto id : ids) {
      const auto& rec = engine.record(id);
      out.delivered[id] = std::set<PeerId>(rec.delivered_to.begin(),
                                           rec.delivered_to.end());
      out.missed[id] = std::set<PeerId>(rec.missed.begin(), rec.missed.end());
    }
    return out;
  }
};

TEST_F(ModeEquivalenceTest, TieSeedStressDoesNotChangeDeliveredMultiset) {
  // Determinism stress: permuting equal-time event order (tie_seed) must
  // not change protocol outcomes, only accidental interleavings.
  runtime::Options seeded;
  seeded.tie_seed = 0xfeedface;
  const auto fifo = run({}, 7);
  const auto permuted = run(seeded, 7);
  ASSERT_GT(fifo.stats.wanted, 0u);
  EXPECT_GT(fifo.stats.retries, 0u);
  EXPECT_EQ(fifo.delivered, permuted.delivered);
  EXPECT_EQ(fifo.missed, permuted.missed);
  EXPECT_EQ(fifo.stats.deliveries, permuted.stats.deliveries);
}

TEST_F(ModeEquivalenceTest, SameSeedSameModeIsBitIdentical) {
  const auto a = run({}, 9);
  const auto b = run({}, 9);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.missed, b.missed);
  EXPECT_EQ(a.stats.retries, b.stats.retries);
  EXPECT_EQ(a.stats.delivery_latency_s.mean(),
            b.stats.delivery_latency_s.mean());
  EXPECT_EQ(a.stats.delivery_latency_s.max(),
            b.stats.delivery_latency_s.max());
}

}  // namespace
}  // namespace sel::pubsub

#include "pubsub/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/factory.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "graph/profiles.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "pubsub/mailbox.hpp"
#include "pubsub/metrics.hpp"
#include "pubsub/multipath.hpp"
#include "select/protocol.hpp"
#include "sim/workload.hpp"

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

TEST_F(EngineTest, InFlightMessagesShareTheirPublishersTree) {
  // Messages in flight point at their publisher's cached tree; none holds a
  // copy. A burst from one publisher may grow tracked message-plane memory
  // by a record and an in-flight slot per message, and draining it gives
  // back all but the records.
  const auto live = [] {
    const auto v = obs::memory_values();
    return v.at("mem.overlay.live_bytes") + v.at("mem.pubsub.live_bytes");
  };
  // The busiest publisher: its tree is the largest a copy could cost.
  PeerId publisher = 0;
  for (PeerId p = 0; p < g_.num_nodes(); ++p) {
    if (g_.degree(p) > g_.degree(publisher)) publisher = p;
  }
  double tree_bytes = 0.0;
  {
    const double base = live();
    const auto tree = ps_->build_tree(publisher);
    tree_bytes = live() - base;
  }
  engine_->publish(publisher, 0.0);  // builds and caches the shared tree
  engine_->run_all();

  constexpr int kMessages = 100;
  // A record plus a slot, with room for the slot pool's doubling growth.
  const double per_message = 2.0 * sizeof(MessageRecord);
  ASSERT_GT(tree_bytes, per_message) << "a tree copy would not show";
  const double before = live();
  for (int i = 0; i < kMessages; ++i) {
    engine_->publish(publisher, engine_->now_s());
  }
  EXPECT_LE(live() - before, kMessages * per_message);
  engine_->run_all();
  EXPECT_GE(live(), before);
  EXPECT_LE(live() - before,
            static_cast<double>(kMessages * sizeof(MessageRecord)));
  EXPECT_EQ(engine_->stats().tree_cache_misses, 1u);
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

// -- pinned message-plane fingerprints ------------------------------------
//
// The message plane shares one immutable tree per publisher across its
// in-flight messages and stores events inline. A change there that alters
// any send order, tie-break, arrival time or delivered set shows up as a
// different hash, so these fingerprints were printed by the engine that
// copied the cached tree into every message and scheduled every hop through
// nested std::function callbacks, and are pinned here: they must never
// change.

class EngineFingerprint : public EngineTest {
 protected:
  /// Order-sensitive 64-bit hash of every message record, the engine's
  /// aggregate stats and the `runtime.*` event and hop counts of one run.
  class Hash {
   public:
    void mix(std::uint64_t v) { h_ = splitmix64(h_ ^ v); }
    void mix_bits(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
    void mix_sorted(const PubsubSet<PeerId>& peers) {
      std::vector<PeerId> sorted(peers.begin(), peers.end());
      std::sort(sorted.begin(), sorted.end());
      mix(sorted.size());
      for (const PeerId p : sorted) mix(p);
    }
    [[nodiscard]] std::uint64_t value() const { return h_; }

   private:
    std::uint64_t h_ = 0xe9f1a9e5c0deULL;
  };

  static std::int64_t counter(const char* name) {
    return obs::MetricsRegistry::global().counter(name).value();
  }

  /// Counter values before a run; fingerprint() hashes the deltas.
  struct Counters {
    std::int64_t events = counter("runtime.events_fired");
    std::int64_t hops = counter("runtime.hops_sent");
  };

  static std::uint64_t fingerprint(const NotificationEngine& engine,
                                   std::span<const MessageId> ids,
                                   const Counters& before) {
    Hash h;
    for (const MessageId id : ids) {
      const auto& rec = engine.record(id);
      h.mix(id);
      h.mix(rec.wanted);
      h.mix(rec.delivered);
      h.mix(rec.relay_forwards);
      h.mix(rec.retries);
      h.mix(rec.failovers);
      h.mix(rec.replays);
      h.mix(rec.duplicates_suppressed);
      h.mix(rec.completed_at_s.has_value() ? 1 : 0);
      h.mix_bits(rec.completed_at_s.value_or(0.0));
      h.mix(rec.delivery_latency_s.count());
      h.mix_bits(rec.delivery_latency_s.mean());
      h.mix_bits(rec.delivery_latency_s.max());
      h.mix_sorted(rec.delivered_to);
      h.mix_sorted(rec.missed);
    }
    const EngineStats& st = engine.stats();
    for (const std::size_t v :
         {st.messages_published, st.deliveries, st.wanted, st.relay_forwards,
          st.tree_cache_hits, st.tree_cache_misses, st.retries,
          st.retry_exhausted, st.failovers, st.replays,
          st.duplicates_suppressed, st.missed, st.replay_evicted,
          st.replay_dropped_crash, st.mailbox_replays}) {
      h.mix(v);
    }
    h.mix(st.delivery_latency_s.count());
    h.mix_bits(st.delivery_latency_s.mean());
    h.mix_bits(st.delivery_latency_s.max());
    h.mix(static_cast<std::uint64_t>(counter("runtime.events_fired") -
                                     before.events));
    h.mix(static_cast<std::uint64_t>(counter("runtime.hops_sent") -
                                     before.hops));
    return h.value();
  }

  static runtime::Options tie_seeded() {
    runtime::Options opts;
    opts.tie_seed = 0xfeedface;
    return opts;
  }

  /// Perfect transfer: a 1,000-peer facebook SELECT overlay and the first
  /// 2,000 posts of an hour of Jiang traffic, the engine drained up to each
  /// publish time as perfbench's feed loop does, then to the end. Returns
  /// the FIFO and the tie-seeded fingerprint.
  static std::pair<std::uint64_t, std::uint64_t> perfect_stream(
      std::uint64_t seed) {
    const auto g =
        graph::make_dataset_graph(graph::profile_by_name("facebook"), 1000,
                                  seed);
    const net::NetworkModel net(g.num_nodes(), seed);
    core::SelectSystem sys(g, core::SelectParams{}, seed, &net);
    sys.build();
    const overlay::PubSubSystem ps(sys);
    auto posts = sim::PublicationWorkload(g, sim::WorkloadParams{}, seed)
                     .generate(3600.0, derive_seed(seed, 1));
    posts.resize(std::min<std::size_t>(posts.size(), 2000));
    const auto run = [&](runtime::Options opts) {
      const Counters before;
      NotificationEngine engine(ps, net);
      engine.set_runtime_options(opts);
      std::vector<MessageId> ids;
      for (const auto& post : posts) {
        engine.run_until(post.time_s);
        ids.push_back(engine.publish(post.publisher, post.time_s));
      }
      engine.run_all();
      return fingerprint(engine, ids, before);
    };
    return {run({}), run(tie_seeded())};
  }

  /// ModeEquivalenceTest's drop/dup/spike mix: retries and receiver dedup.
  static fault::FaultSpec equivalence_mix() {
    fault::FaultSpec spec;
    spec.drop = 0.08;
    spec.duplicate = 0.02;
    spec.spike = 0.02;
    spec.spike_factor = 3.0;
    return spec;
  }

  /// Heavy loss, stalls and crashes with two sends per hop: exhausted
  /// retries, failover legs, detours and receiver states drawn at arrival.
  static fault::FaultSpec failover_mix() {
    fault::FaultSpec spec = equivalence_mix();
    spec.drop = 0.25;
    spec.stall = 0.05;
    spec.stall_s = 10.0;
    spec.crash = 0.002;
    return spec;
  }

  /// ModeEquivalenceTest's reliable setup (retry and failover armed) with a
  /// mailbox tier added: three of publisher 0's subscribers are offline
  /// while the ten messages fly, so their misses are replicated, and they
  /// collect them on return.
  std::uint64_t reliable_with_mailbox(runtime::Options opts,
                                      const fault::FaultSpec& spec,
                                      std::size_t max_attempts) {
    fault::FaultPlan plan(spec, 7, g_.num_nodes());
    const Counters before;
    NotificationEngine engine(*ps_, *net_);
    engine.set_runtime_options(opts);
    engine.set_fault_plan(&plan);
    RetryPolicy policy;
    policy.enabled = true;
    policy.ack_timeout_s = 2.0;
    policy.max_attempts = max_attempts;
    engine.set_retry_policy(policy);
    engine.set_multipath_planner(
        [this](PeerId b) { return plan_multipath(*sys_, g_, b); });
    MailboxManager mailbox(engine.event_engine(), *sys_, *net_,
                           MailboxPolicy{}, 7);
    mailbox.set_fault_plan(&plan);
    engine.set_mailbox(&mailbox);
    const auto subs = ps_->subscribers_of(0);
    const std::vector<PeerId> away(subs.begin(), subs.begin() + 3);
    for (const PeerId p : away) sys_->set_peer_online(p, false);
    std::vector<MessageId> ids;
    for (PeerId p = 0; p < 10; ++p) {
      ids.push_back(engine.publish(p, static_cast<double>(p)));
    }
    engine.run_all();
    for (const PeerId p : away) {
      sys_->set_peer_online(p, true);
      engine.replay_missed(p, engine.now_s());
    }
    engine.run_all();
    Hash h;
    h.mix(fingerprint(engine, ids, before));
    const MailboxStats& mb = mailbox.stats();
    for (const std::size_t v :
         {mb.replicated, mb.store_attempts, mb.acks, mb.duplicate_acks,
          mb.retries, mb.replacements, mb.quorum_writes, mb.quorum_degraded,
          mb.replays, mb.superseded}) {
      h.mix(v);
    }
    return h.value();
  }

  static void expect_pinned(std::uint64_t got, std::uint64_t pinned,
                            const char* what) {
    EXPECT_EQ(got, pinned) << what << ": 0x" << std::hex << got;
  }
};

TEST_F(EngineFingerprint, PerfectStreamSeed1) {
  const auto [fifo, tie] = perfect_stream(1);
  expect_pinned(fifo, 0x94ef675b49ef0bffULL, "fifo");
  expect_pinned(tie, 0x94ef675b49ef0bffULL, "tie seed");
}

TEST_F(EngineFingerprint, PerfectStreamSeed2) {
  const auto [fifo, tie] = perfect_stream(2);
  expect_pinned(fifo, 0xd562eb5f22706901ULL, "fifo");
  expect_pinned(tie, 0xd562eb5f22706901ULL, "tie seed");
}

TEST_F(EngineFingerprint, PerfectStreamSeed3) {
  const auto [fifo, tie] = perfect_stream(3);
  expect_pinned(fifo, 0x4a40395a58a7fc10ULL, "fifo");
  expect_pinned(tie, 0x4a40395a58a7fc10ULL, "tie seed");
}

TEST_F(EngineFingerprint, ReliableWithMailbox) {
  expect_pinned(reliable_with_mailbox({}, equivalence_mix(), 4),
                0xb2fd5c20b94e836aULL, "fifo");
  expect_pinned(reliable_with_mailbox(tie_seeded(), equivalence_mix(), 4),
                0xb2fd5c20b94e836aULL, "tie seed");
}

TEST_F(EngineFingerprint, FailoverLadderWithMailbox) {
  expect_pinned(reliable_with_mailbox({}, failover_mix(), 2),
                0x23734b9dfcb0e1b2ULL, "fifo");
  expect_pinned(reliable_with_mailbox(tie_seeded(), failover_mix(), 2),
                0x7081d3f83910c324ULL, "tie seed");
}

// -- per-drain hop tallies --------------------------------------------------
//
// The engine and its transport count hops in plain tallies and fold them
// into the registry when a drain ends. A caller draining the event engine
// directly, as perfbench does, must read exact registry counts after every
// drain. With every publish traced, the provenance tracer is the independent
// per-hop record: one HopRecord per Transport::send.

class DrainTallyTest : public EngineTest {
 protected:
  void SetUp() override {
    EngineTest::SetUp();
    obs::ProvenanceTracer::global().reset();
    obs::ProvenanceTracer::global().set_sample_every(1);
  }
  void TearDown() override {
    obs::ProvenanceTracer::global().set_sample_every(0);
    obs::ProvenanceTracer::global().reset();
  }

  /// The registry values the tallies feed, read now.
  struct Registry {
    static std::int64_t counter(const char* name) {
      return obs::MetricsRegistry::global().counter(name).value();
    }
    static std::int64_t hist_count(const char* name) {
      return obs::MetricsRegistry::global().histogram(name).count();
    }
    std::int64_t deliveries = counter("pubsub.deliveries");
    std::int64_t delivery_hops = counter("pubsub.delivery_hops");
    std::int64_t relay_forwards = counter("pubsub.relay_forwards");
    std::int64_t hops_sent = counter("runtime.hops_sent");
    std::int64_t delivery_latency = hist_count("pubsub.delivery_latency_s");
    std::int64_t hop_latency = hist_count("runtime.hop_latency_s");
  };

  /// Registry deltas since `before` against the engine's stats and the
  /// traced hops. `drops` is the fault plan's drop count: a dropped hop is
  /// sent but has no latency. On the perfect wire every subscriber is
  /// online, so a hop to a subscriber delivers once it arrived by `t_s`,
  /// which pins `pubsub.delivery_hops` exactly.
  static void expect_exact(const Registry& before, const EngineStats& st,
                           double t_s, bool perfect, std::int64_t drops) {
    const Registry now;
    const auto trace = obs::ProvenanceTracer::global().snapshot();
    EXPECT_EQ(now.deliveries - before.deliveries,
              static_cast<std::int64_t>(st.deliveries));
    EXPECT_EQ(now.relay_forwards - before.relay_forwards,
              static_cast<std::int64_t>(st.relay_forwards));
    EXPECT_EQ(now.delivery_latency - before.delivery_latency,
              static_cast<std::int64_t>(st.delivery_latency_s.count()));
    EXPECT_EQ(now.hops_sent - before.hops_sent, trace.hops_recorded);
    EXPECT_EQ(now.hop_latency - before.hop_latency,
              trace.hops_recorded - drops);
    const std::int64_t hops = now.delivery_hops - before.delivery_hops;
    if (perfect) {
      std::int64_t delivered_depth = 0;
      for (const auto& hop : trace.hops) {
        if (hop.delivered && hop.arrive_s <= t_s) delivered_depth += hop.depth;
      }
      EXPECT_EQ(hops, delivered_depth);
    } else {
      EXPECT_GE(hops, static_cast<std::int64_t>(st.deliveries));
    }
  }
};

TEST_F(DrainTallyTest, PerfectStreamIsExactAfterEveryDrain) {
  const Registry before;
  EngineStats last;
  {
    NotificationEngine engine(*ps_, *net_);
    auto& events = engine.event_engine();
    for (PeerId p = 0; p < 40; ++p) {
      const double t = 0.5 * static_cast<double>(p);
      events.run_until(t);
      expect_exact(before, engine.stats(), t, /*perfect=*/true, 0);
      engine.publish(p % 20, t);
    }
    // Stop mid-dissemination, then drop the engine with events pending.
    events.run_until(20.5);
    expect_exact(before, engine.stats(), 20.5, true, 0);
    ASSERT_FALSE(events.idle());
    last = engine.stats();
  }
  ASSERT_GT(last.deliveries, 0u);
  expect_exact(before, last, 20.5, true, 0);
}

TEST_F(DrainTallyTest, ReliableStreamWithMailboxIsExactAfterEveryDrain) {
  fault::FaultSpec spec;
  spec.drop = 0.08;
  spec.duplicate = 0.02;
  spec.spike = 0.02;
  spec.spike_factor = 3.0;
  fault::FaultPlan plan(spec, 7, g_.num_nodes());
  const Registry before;
  NotificationEngine engine(*ps_, *net_);
  engine.set_fault_plan(&plan);
  RetryPolicy policy;
  policy.enabled = true;
  policy.ack_timeout_s = 2.0;
  engine.set_retry_policy(policy);
  engine.set_multipath_planner(
      [this](PeerId b) { return plan_multipath(*sys_, g_, b); });
  MailboxManager mailbox(engine.event_engine(), *sys_, *net_, MailboxPolicy{},
                         7);
  mailbox.set_fault_plan(&plan);
  engine.set_mailbox(&mailbox);
  const auto subs = ps_->subscribers_of(0);
  for (auto it = subs.begin(); it != subs.begin() + 3; ++it) {
    sys_->set_peer_online(*it, false);
  }
  auto& events = engine.event_engine();
  const auto drops = [&plan] {
    return static_cast<std::int64_t>(plan.stats().drops);
  };
  for (PeerId p = 0; p < 10; ++p) {
    const double t = static_cast<double>(p);
    events.run_until(t);
    expect_exact(before, engine.stats(), t, /*perfect=*/false, drops());
    engine.publish(p, t);
  }
  events.run();
  expect_exact(before, engine.stats(), events.now_s(), false, drops());
  EXPECT_GT(engine.stats().retries, 0u);
  EXPECT_GT(plan.stats().drops, 0u);
}

// -- registry mirror --------------------------------------------------------
//
// EngineStats is the engine's only tally: every `pubsub.*` counter and the
// two `fault.route_avoid_*` counters sum one of its fields over all engines
// in the process, and read exactly that whenever control is outside an
// engine — after a publish, a replay or a crash notice as much as after a
// drain.

class RegistryMirrorTest : public EngineTest {
 protected:
  using Field = std::size_t EngineStats::*;
  /// Registry name -> the EngineStats field it mirrors.
  static constexpr std::pair<const char*, Field> kMirror[] = {
      {"pubsub.publishes", &EngineStats::messages_published},
      {"pubsub.tree_builds", &EngineStats::tree_cache_misses},
      {"pubsub.deliveries", &EngineStats::deliveries},
      {"pubsub.delivery_hops", &EngineStats::delivery_hops},
      {"pubsub.relay_forwards", &EngineStats::relay_forwards},
      {"pubsub.retries", &EngineStats::retries},
      {"pubsub.retry_exhausted", &EngineStats::retry_exhausted},
      {"pubsub.failovers", &EngineStats::failovers},
      {"pubsub.replays", &EngineStats::replays},
      {"pubsub.duplicates_suppressed", &EngineStats::duplicates_suppressed},
      {"pubsub.missed", &EngineStats::missed},
      {"pubsub.replay_evicted", &EngineStats::replay_evicted},
      {"pubsub.replay_dropped_crash", &EngineStats::replay_dropped_crash},
      {"pubsub.mailbox_replays", &EngineStats::mailbox_replays},
      {"fault.route_avoid_failed", &EngineStats::route_avoid_failed},
      {"fault.route_avoid_unsupported", &EngineStats::route_avoid_unsupported},
  };

  static std::int64_t counter(const char* name) {
    return obs::MetricsRegistry::global().counter(name).value();
  }

  /// Every mirrored counter, read now.
  static std::vector<std::int64_t> read_counters() {
    std::vector<std::int64_t> values;
    for (const auto& [name, field] : kMirror) values.push_back(counter(name));
    return values;
  }

  /// Each counter's change since `before` equals the field's sum over the
  /// two engines.
  static void expect_mirrored(const std::vector<std::int64_t>& before,
                              const NotificationEngine& a,
                              const NotificationEngine& b, const char* after) {
    for (std::size_t i = 0; i < std::size(kMirror); ++i) {
      const auto& [name, field] = kMirror[i];
      const std::size_t sum = a.stats().*field + b.stats().*field;
      EXPECT_EQ(counter(name) - before[i], static_cast<std::int64_t>(sum))
          << name << " after " << after;
    }
  }
};

TEST_F(RegistryMirrorTest, CountersEqualSummedStatsWheneverControlIsOutside) {
  // Heavy loss, stalls and crashes with two sends per hop: retries,
  // exhausted hops, failover legs and receiver dedup. A replay cap of two
  // evicts queued entries.
  fault::FaultSpec spec;
  spec.drop = 0.25;
  spec.duplicate = 0.02;
  spec.spike = 0.02;
  spec.spike_factor = 3.0;
  spec.stall = 0.05;
  spec.stall_s = 10.0;
  spec.crash = 0.002;
  fault::FaultPlan plan_a(spec, 7, g_.num_nodes());
  fault::FaultPlan plan_b(spec, 8, g_.num_nodes());
  const auto before = read_counters();
  NotificationEngine a(*ps_, *net_);
  NotificationEngine b(*ps_, *net_);
  MailboxManager mailbox_a(a.event_engine(), *sys_, *net_, MailboxPolicy{}, 7);
  MailboxManager mailbox_b(b.event_engine(), *sys_, *net_, MailboxPolicy{}, 8);
  const auto arm = [this](NotificationEngine& engine, fault::FaultPlan& plan,
                          MailboxManager& mailbox) {
    engine.set_fault_plan(&plan);
    RetryPolicy policy;
    policy.enabled = true;
    policy.ack_timeout_s = 2.0;
    policy.max_attempts = 2;
    policy.replay_cap = 2;
    engine.set_retry_policy(policy);
    engine.set_multipath_planner(
        [this](PeerId p) { return plan_multipath(*sys_, g_, p); });
    mailbox.set_fault_plan(&plan);
    engine.set_mailbox(&mailbox);
  };
  arm(a, plan_a, mailbox_a);
  arm(b, plan_b, mailbox_b);
  // Three subscribers of publisher 0 are away while the messages fly, so
  // their misses queue (and replicate) at publish time.
  const auto subs = ps_->subscribers_of(0);
  const std::vector<PeerId> away(subs.begin(), subs.begin() + 3);
  for (const PeerId p : away) sys_->set_peer_online(p, false);
  expect_mirrored(before, a, b, "construction");
  for (PeerId p = 0; p < 10; ++p) {
    const double t = static_cast<double>(p);
    a.run_until(t);
    expect_mirrored(before, a, b, "a drain");
    b.run_until(t);
    expect_mirrored(before, a, b, "b drain");
    a.publish(p, t);
    expect_mirrored(before, a, b, "a publish");
    b.publish(p, t);
    expect_mirrored(before, a, b, "b publish");
  }
  a.run_all();
  b.run_all();
  expect_mirrored(before, a, b, "the final drains");
  // Publisher 0 crashes with replays queued: engine a drops them and its
  // mailbox hands off; then the away subscribers return.
  a.on_peer_crashed(0, a.now_s());
  expect_mirrored(before, a, b, "on_peer_crashed");
  for (const PeerId p : away) {
    sys_->set_peer_online(p, true);
    a.replay_missed(p, a.now_s());
    expect_mirrored(before, a, b, "a replay_missed");
    b.replay_missed(p, b.now_s());
    expect_mirrored(before, a, b, "b replay_missed");
  }
  a.run_all();
  b.run_all();
  expect_mirrored(before, a, b, "the replay drains");
  // Every `pubsub.*` field moved, so no equality above is vacuous; the
  // detour counters get exact cases of their own below.
  for (const auto& [name, field] : kMirror) {
    if (std::string_view(name).starts_with("fault.")) continue;
    EXPECT_GT(a.stats().*field + b.stats().*field, 0u) << name;
  }
}

// -- detour outcomes ----------------------------------------------------------
//
// With no backup route on offer, each subscriber lost under an exhausted
// tree hop asks the overlay for a detour around the dead receiver. Leaf
// subscribers taken offline right after the publish lose exactly their own
// hop, and the detour's destination is then offline too: a ring overlay
// finds no live path (`fault.route_avoid_failed`), and an overlay without
// route_avoiding cannot even try (`fault.route_avoid_unsupported`).

class DetourCountTest : public EngineTest {
 protected:
  struct Counts {
    std::int64_t failed = 0;       ///< fault.route_avoid_failed delta
    std::int64_t unsupported = 0;  ///< fault.route_avoid_unsupported delta
    EngineStats stats;
  };

  /// Publishes from the first peer whose tree has `leaves` subscriber leaves,
  /// takes those leaves offline before any hop lands, and drains.
  Counts lose_leaves(overlay::Overlay& ov, const overlay::PubSubSystem& ps,
                     std::size_t leaves) {
    const auto counter = [](const char* name) {
      return obs::MetricsRegistry::global().counter(name).value();
    };
    PeerId publisher = 0;
    std::vector<PeerId> away;
    for (; publisher < g_.num_nodes() && away.size() < leaves; ++publisher) {
      away.clear();
      const auto tree = ps.build_tree(publisher);
      const auto subs = ps.subscribers_of(publisher);
      for (overlay::DisseminationTree::Pos p = 1;
           p < tree.node_count() && away.size() < leaves; ++p) {
        if (tree.children_at(p).empty() && subs.contains(tree.peer_at(p))) {
          away.push_back(tree.peer_at(p));
        }
      }
    }
    EXPECT_EQ(away.size(), leaves);
    --publisher;
    const std::int64_t failed = counter("fault.route_avoid_failed");
    const std::int64_t unsupported = counter("fault.route_avoid_unsupported");
    NotificationEngine engine(ps, *net_);
    RetryPolicy policy;
    policy.enabled = true;
    policy.ack_timeout_s = 2.0;
    engine.set_retry_policy(policy);
    engine.set_multipath_planner([](PeerId p) {
      MultipathPlan none;
      none.publisher = p;
      return none;
    });
    engine.publish(publisher, 0.0);
    for (const PeerId p : away) ov.set_peer_online(p, false);
    engine.run_all();
    for (const PeerId p : away) ov.set_peer_online(p, true);
    return {counter("fault.route_avoid_failed") - failed,
            counter("fault.route_avoid_unsupported") - unsupported,
            engine.stats()};
  }

  static void expect_lost(const EngineStats& st, std::size_t leaves) {
    EXPECT_EQ(st.retries, leaves * (RetryPolicy{}.max_attempts - 1));
    EXPECT_EQ(st.retry_exhausted, leaves);
    EXPECT_EQ(st.failovers, 0u);
    EXPECT_EQ(st.missed, leaves);
    EXPECT_EQ(st.deliveries + leaves, st.wanted);
  }
};

TEST_F(DetourCountTest, RingOverlayCountsDetoursThatFindNoLivePath) {
  ASSERT_TRUE(sys_->capabilities().route_avoiding);
  const Counts c = lose_leaves(*sys_, *ps_, 3);
  EXPECT_EQ(c.failed, 3);
  EXPECT_EQ(c.unsupported, 0);
  EXPECT_EQ(c.stats.route_avoid_failed, 3u);
  EXPECT_EQ(c.stats.route_avoid_unsupported, 0u);
  expect_lost(c.stats, 3);
}

TEST_F(DetourCountTest, OverlayWithoutRouteAvoidingCountsUnsupported) {
  const auto bayeux =
      baselines::make_overlay("bayeux", g_, {.seed = 5, .net = net_.get()});
  bayeux->build();
  ASSERT_FALSE(bayeux->capabilities().route_avoiding);
  const overlay::PubSubSystem ps(*bayeux);
  const Counts c = lose_leaves(*bayeux, ps, 3);
  EXPECT_EQ(c.unsupported, 3);
  EXPECT_EQ(c.failed, 0);
  EXPECT_EQ(c.stats.route_avoid_unsupported, 3u);
  EXPECT_EQ(c.stats.route_avoid_failed, 0u);
  expect_lost(c.stats, 3);
}

}  // namespace
}  // namespace sel::pubsub

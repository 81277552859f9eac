// Replicated-mailbox durability tier (pubsub/mailbox.hpp): CMA-weighted
// placement, quorum store/ack writes, replay-cap interplay, the
// publisher-crash + replica-crash recovery path (ROADMAP item 4's exit
// criterion), byzantine-acceptor tolerance, and the late-copy-vs-replay
// race on the in-process transport.
#include "pubsub/mailbox.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "common/flat_set.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "graph/profiles.hpp"
#include "pubsub/engine.hpp"
#include "runtime/event_engine.hpp"
#include "select/cma.hpp"
#include "select/protocol.hpp"

namespace sel::pubsub {
namespace {

using overlay::PeerId;

class MailboxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = graph::make_dataset_graph(graph::profile_by_name("facebook"), 300, 5);
    net_ = std::make_unique<net::NetworkModel>(g_.num_nodes(), 5);
    sys_ = std::make_unique<core::SelectSystem>(g_, core::SelectParams{}, 5,
                                                net_.get());
    sys_->build();
    ps_ = std::make_unique<overlay::PubSubSystem>(*sys_);
  }

  void TearDown() override {
    for (PeerId p = 0; p < g_.num_nodes(); ++p) sys_->set_peer_online(p, true);
  }

  graph::SocialGraph g_;
  std::unique_ptr<net::NetworkModel> net_;
  std::unique_ptr<core::SelectSystem> sys_;
  std::unique_ptr<overlay::PubSubSystem> ps_;
};

TEST_F(MailboxTest, PlacementIsDeterministicAndExcludesSubscriber) {
  runtime::EventEngine q;
  const MailboxManager a(q, *sys_, *net_, MailboxPolicy{}, 42);
  const MailboxManager b(q, *sys_, *net_, MailboxPolicy{}, 42);
  const PeerId sub = 7;
  const auto ra = a.placement_ranking(sub);
  const auto rb = b.placement_ranking(sub);
  ASSERT_GE(ra.size(), MailboxPolicy{}.replicas);
  EXPECT_EQ(ra, rb);  // pure in (seed, subscriber, candidate)
  EXPECT_EQ(std::find(ra.begin(), ra.end(), sub), ra.end());

  // A different seed draws a different ranking.
  const MailboxManager c(q, *sys_, *net_, MailboxPolicy{}, 43);
  EXPECT_NE(c.placement_ranking(sub), ra);
}

TEST_F(MailboxTest, PlacementFavorsHighAvailabilityPeers) {
  runtime::EventEngine q;
  MailboxManager mb(q, *sys_, *net_, MailboxPolicy{}, 42);
  const PeerId sub = 7;
  const auto neighbors = sys_->overlay().neighbor_list(sub);
  ASSERT_GE(neighbors.size(), 2u);
  // One neighborhood peer gets near-perfect CMA, everyone else near-zero:
  // the weighted rendezvous score u^(1/cma^bias) must rank it first.
  const PeerId target = neighbors.front() == sub ? neighbors[1]
                                                 : neighbors.front();
  mb.set_availability_fn(
      [target](PeerId p) { return p == target ? 1.0 : 0.01; });
  const auto ranking = mb.placement_ranking(sub);
  ASSERT_FALSE(ranking.empty());
  EXPECT_EQ(ranking.front(), target);
}

// The documented rendezvous draw of (seed, subscriber, candidate) under the
// mailbox placement salt.
double draw_u01(std::uint64_t seed, PeerId sub, PeerId p) {
  std::uint64_t h = splitmix64(seed ^ splitmix64(0x3a11b0c501));
  h = splitmix64(h ^ splitmix64(sub));
  h = splitmix64(h ^ splitmix64(p));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Brute-force reference for placement_ranking(): score every candidate,
// sort each section fully by (score desc, peer asc) and cut the fallback
// section to the pool.
std::vector<PeerId> full_scan_ranking(
    const overlay::Overlay& ov, PeerId sub, std::uint64_t seed,
    const MailboxPolicy& policy,
    const std::function<double(PeerId)>& availability,
    const fault::FaultPlan* plan) {
  const auto u01 = [&](PeerId p) { return draw_u01(seed, sub, p); };
  struct Scored {
    double score;
    PeerId peer;
  };
  const auto by_score = [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.peer < b.peer;
  };
  const auto scored = [&](PeerId p) {
    const double a = availability ? availability(p) : 1.0;
    return Scored{core::placement_score(a, u01(p), policy.bias), p};
  };
  const auto dead = [plan](PeerId p) {
    return plan != nullptr && plan->crashed(p);
  };
  const std::vector<PeerId> neighbors = ov.neighbors(sub);
  const FlatSet<PeerId> near(neighbors.begin(), neighbors.end());
  std::vector<Scored> neighborhood;
  std::vector<Scored> rest;
  for (PeerId p = 0; p < ov.num_peers(); ++p) {
    if (p == sub || dead(p)) continue;
    (near.contains(p) ? neighborhood : rest).push_back(scored(p));
  }
  std::sort(neighborhood.begin(), neighborhood.end(), by_score);
  std::sort(rest.begin(), rest.end(), by_score);
  rest.resize(std::min(rest.size(), policy.fallback_pool));
  std::vector<PeerId> out;
  for (const auto& s : neighborhood) out.push_back(s.peer);
  for (const auto& s : rest) out.push_back(s.peer);
  return out;
}

TEST_F(MailboxTest, PlacementMatchesFullScanReference) {
  // placement_ranking() skips candidates whose score bound cannot enter
  // the fallback pool; it must still return exactly the full-scan ranking.
  const std::vector<std::pair<const char*, std::function<double(PeerId)>>>
      availabilities = {
          {"unset", nullptr},
          {"all 1.0", [](PeerId) { return 1.0; }},
          // Scores underflow to 0.0: the order falls to peer id.
          {"all 0.0", [](PeerId) { return 0.0; }},
          {"mixed",
           [](PeerId p) {
             return static_cast<double>(splitmix64(p) % 1001) / 1000.0;
           }},
          {"1e-4 beside 0.37",
           [](PeerId p) { return p % 2 == 0 ? 1e-4 : 0.37; }},
          // Above 1 the bound does not hold; such peers are scored exactly.
          {"some above 1",
           [](PeerId p) {
             return p % 7 == 0 ? 3.0 : p % 3 == 0 ? 1.25 : 0.5;
           }},
      };
  fault::FaultPlan plan(fault::FaultSpec{}, 42, g_.num_nodes());
  const PeerId sub = 7;
  const auto near = sys_->overlay().neighbor_list(sub);
  ASSERT_FALSE(near.empty());
  plan.force_crash(near.front());
  for (const PeerId p : {0U, 1U, 8U, 100U, 150U, 299U}) plan.force_crash(p);

  runtime::EventEngine q;
  for (const std::size_t pool : {std::size_t{0}, std::size_t{1},
                                 std::size_t{24}, g_.num_nodes() + 5}) {
    MailboxPolicy policy;
    policy.fallback_pool = pool;
    for (const auto& [label, availability] : availabilities) {
      for (fault::FaultPlan* faults :
           {static_cast<fault::FaultPlan*>(nullptr), &plan}) {
        for (const PeerId s : {sub, PeerId{0}, PeerId{150}, PeerId{299}}) {
          MailboxManager mb(q, *sys_, *net_, policy, 42);
          mb.set_availability_fn(availability);
          mb.set_fault_plan(faults);
          EXPECT_EQ(mb.placement_ranking(s),
                    full_scan_ranking(*sys_, s, 42, policy, availability,
                                      faults))
              << "pool " << pool << ", availability " << label
              << ", crashed peers " << (faults != nullptr)
              << ", subscriber " << s;
        }
      }
    }
  }

  // Each exit of the draw-order walk: it stops early in the cases above;
  // below it runs out of cached draws or is never taken.
  const auto mixed = availabilities[3].second;
  const auto expect_reference = [&](const MailboxPolicy& policy,
                                    const std::function<double(PeerId)>& a,
                                    fault::FaultPlan* faults, PeerId s,
                                    const char* label) {
    MailboxManager mb(q, *sys_, *net_, policy, 42);
    mb.set_availability_fn(a);
    mb.set_fault_plan(faults);
    EXPECT_EQ(mb.placement_ranking(s),
              full_scan_ranking(*sys_, s, 42, policy, a, faults))
        << label << ", subscriber " << s;
  };
  // The 64 best draws of `s` by (u desc, peer asc), as the walk caches them.
  const auto best_draws = [&](PeerId s) {
    std::vector<std::pair<double, PeerId>> draws;
    for (PeerId p = 0; p < g_.num_nodes(); ++p) {
      draws.emplace_back(draw_u01(42, s, p), p);
    }
    std::sort(draws.begin(), draws.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    draws.resize(64);
    return draws;
  };
  const MailboxPolicy defaults;

  // Every cached draw is the subscriber, a neighbour or crashed: the walk
  // runs out without a full pool.
  for (const PeerId s : {sub, PeerId{150}}) {
    fault::FaultPlan crashed(fault::FaultSpec{}, 42, g_.num_nodes());
    const auto neighbors = sys_->overlay().neighbor_list(s);
    for (const auto& [u, p] : best_draws(s)) {
      if (p != s && std::find(neighbors.begin(), neighbors.end(), p) ==
                        neighbors.end()) {
        crashed.force_crash(p);
      }
    }
    expect_reference(defaults, mixed, &crashed, s, "best 64 draws excluded");
    expect_reference(defaults, nullptr, &crashed, s,
                     "best 64 draws excluded, availability unset");
  }

  // One NaN availability makes the scores unbounded: the walk is not
  // taken. A NaN score is not ordered, so the expected ranking is the full
  // scan itself, forced by an availability above 1 on the subscriber, who
  // is never scored. The NaN peer has the lowest id outside the cached
  // draws: the scan meets it before its pool fills, a walk never would.
  for (const PeerId s : {sub, PeerId{150}}) {
    const auto draws = best_draws(s);
    const auto neighbors = sys_->overlay().neighbor_list(s);
    PeerId nan_peer = 0;
    while (nan_peer == s ||
           std::find(neighbors.begin(), neighbors.end(), nan_peer) !=
               neighbors.end() ||
           std::any_of(draws.begin(), draws.end(), [&](const auto& d) {
             return d.second == nan_peer;
           })) {
      ++nan_peer;
    }
    const std::function<double(PeerId)> one_nan = [nan_peer](PeerId p) {
      return p == nan_peer ? std::numeric_limits<double>::quiet_NaN() : 1.0;
    };
    const std::function<double(PeerId)> forced_scan = [&](PeerId p) {
      return p == s ? 2.0 : one_nan(p);
    };
    MailboxManager nan_mb(q, *sys_, *net_, defaults, 42);
    nan_mb.set_availability_fn(one_nan);
    MailboxManager scan_mb(q, *sys_, *net_, defaults, 42);
    scan_mb.set_availability_fn(forced_scan);
    EXPECT_EQ(nan_mb.placement_ranking(s), scan_mb.placement_ranking(s))
        << "one NaN availability, subscriber " << s;
  }

  // A negative bias lifts scores above their draw: the walk is not taken.
  MailboxPolicy negative_bias;
  negative_bias.bias = -1.0;
  for (const PeerId s : {sub, PeerId{0}, PeerId{299}}) {
    expect_reference(negative_bias, mixed, nullptr, s, "bias -1");
    expect_reference(negative_bias, nullptr, &plan, s,
                     "bias -1, availability unset");
  }

  // A pool larger than the cached draws can never fill from them.
  for (const std::size_t pool : {std::size_t{65}, std::size_t{100}}) {
    MailboxPolicy large;
    large.fallback_pool = pool;
    for (const PeerId s : {sub, PeerId{150}}) {
      expect_reference(large, mixed, &plan, s, "pool above 64");
      expect_reference(large, nullptr, nullptr, s,
                       "pool above 64, availability unset");
    }
  }
}

TEST_F(MailboxTest, ReplicateReachesQuorumAndReplaysOnce) {
  const check::ScopedLevel full(check::Level::kFull);
  runtime::EventEngine q;
  MailboxManager mb(q, *sys_, *net_, MailboxPolicy{}, 42);
  const PeerId sub = 7;
  const PeerId source = 0;
  mb.replicate(1, sub, source, 0.0);
  mb.replicate(1, sub, source, 0.0);  // idempotent per (msg, subscriber)
  q.run();

  EXPECT_EQ(mb.stats().replicated, 1u);
  EXPECT_EQ(mb.pending(), 1u);
  EXPECT_EQ(mb.stats().quorum_writes, 1u);
  EXPECT_EQ(mb.stats().quorum_degraded, 0u);
  // Fault-free acceptors: all k slots store and ack exactly once.
  EXPECT_EQ(mb.stats().acks, mb.policy().replicas);
  const auto replicas = mb.replicas_of(1, sub);
  EXPECT_EQ(replicas.size(), mb.policy().replicas);
  EXPECT_EQ(std::find(replicas.begin(), replicas.end(), sub), replicas.end());
  EXPECT_EQ(std::find(replicas.begin(), replicas.end(), source),
            replicas.end());

  const auto msgs = mb.replay(sub, q.now_s());
  EXPECT_EQ(msgs, std::vector<MessageId>{1});
  EXPECT_EQ(mb.stats().replays, 1u);
  EXPECT_EQ(mb.stats().replay_lost, 0u);
  EXPECT_EQ(mb.pending(), 0u);
  EXPECT_TRUE(mb.replicas_of(1, sub).empty());
  // Replaying again serves nothing: the entry is resolved.
  EXPECT_TRUE(mb.replay(sub, q.now_s()).empty());
}

TEST_F(MailboxTest, PrimaryDeliverySupersedesTheMailboxCopy) {
  runtime::EventEngine q;
  MailboxManager mb(q, *sys_, *net_, MailboxPolicy{}, 42);
  mb.replicate(1, 7, 0, 0.0);
  q.run();
  mb.on_delivered(1, 7);
  EXPECT_EQ(mb.stats().superseded, 1u);
  EXPECT_EQ(mb.pending(), 0u);
  EXPECT_TRUE(mb.replay(7, q.now_s()).empty());
  EXPECT_EQ(mb.stats().replay_lost, 0u);
}

TEST_F(MailboxTest, PlacementAvoidsTheSubscribersFailureDomainSiblings) {
  fault::FaultSpec spec;
  spec.bursts = 1;
  spec.burst_width = 16;
  fault::FaultPlan plan(spec, 42, g_.num_nodes());
  ASSERT_GT(plan.num_domains(), 1u);
  runtime::EventEngine q;
  MailboxManager mb(q, *sys_, *net_, MailboxPolicy{}, 42);
  mb.set_fault_plan(&plan);
  const PeerId sub = 7;
  const PeerId source = 0;
  mb.replicate(1, sub, source, 0.0);
  q.run();
  const auto replicas = mb.replicas_of(1, sub);
  ASSERT_EQ(replicas.size(), mb.policy().replicas);
  // Availability diversity: no replica shares a correlated-failure domain
  // with the subscriber, the source, or another replica — one burst cannot
  // erase the whole set.
  std::vector<std::uint32_t> domains{plan.failure_domain(sub),
                                     plan.failure_domain(source)};
  for (const PeerId r : replicas) {
    const auto d = plan.failure_domain(r);
    EXPECT_EQ(std::count(domains.begin(), domains.end(), d), 0)
        << "replica " << r << " shares domain " << d;
    domains.push_back(d);
  }
}

TEST_F(MailboxTest, ReplayCapEvictsOldestButMailboxStillRecovers) {
  const check::ScopedLevel full(check::Level::kFull);
  const auto subs = ps_->subscribers_of(0);
  ASSERT_GE(subs.size(), 3u);
  std::vector<PeerId> away(subs.begin(), subs.end());
  away.resize(3);

  // Control: cap 2, no mailbox — the oldest queued entry is simply lost.
  {
    NotificationEngine engine(*ps_, *net_);
    RetryPolicy policy;
    policy.enabled = true;
    policy.replay_cap = 2;
    engine.set_retry_policy(policy);
    for (const PeerId s : away) sys_->set_peer_online(s, false);
    engine.invalidate_trees();
    engine.publish(0, 0.0);
    engine.run_all();
    EXPECT_EQ(engine.stats().replay_evicted, 1u);
    EXPECT_EQ(engine.pending_replays(), 2u);
    // away is ascending (FlatSet order), so away[0] queued first = evicted.
    sys_->set_peer_online(away[0], true);
    EXPECT_EQ(engine.replay_missed(away[0], engine.now_s()), 0u);
    for (const PeerId s : away) sys_->set_peer_online(s, true);
  }

  // With the durability tier armed the evicted entry survives as mailbox
  // replicas and is served back on return.
  {
    NotificationEngine engine(*ps_, *net_);
    RetryPolicy policy;
    policy.enabled = true;
    policy.replay_cap = 2;
    engine.set_retry_policy(policy);
    MailboxManager mb(engine.event_engine(), *sys_, *net_,
                      MailboxPolicy{}, 42);
    engine.set_mailbox(&mb);
    for (const PeerId s : away) sys_->set_peer_online(s, false);
    engine.invalidate_trees();
    const auto id = engine.publish(0, 0.0);
    engine.run_all();
    EXPECT_EQ(engine.stats().replay_evicted, 1u);
    EXPECT_EQ(mb.stats().replicated, 3u);
    for (const PeerId s : away) {
      sys_->set_peer_online(s, true);
      EXPECT_EQ(engine.replay_missed(s, engine.now_s()), 1u);
      EXPECT_TRUE(engine.record(id).delivered_to.contains(s));
    }
    // The evicted subscriber's replay came from the mailbox, the other two
    // from the local queue.
    EXPECT_EQ(engine.stats().mailbox_replays, 1u);
    EXPECT_EQ(engine.stats().replays, 3u);
    EXPECT_EQ(mb.pending(), 0u);
    EXPECT_TRUE(engine.record(id).missed.empty());
  }
}

TEST_F(MailboxTest, PublisherCrashThenReplicaCrashStillDelivers) {
  // ROADMAP item 4's exit scenario: the publisher (only local copy holder)
  // crashes mid-store-and-forward AND one mailbox replica crashes before
  // the subscriber returns — the message must still be delivered, via
  // quorum replicas plus anti-entropy handoff.
  const check::ScopedLevel full(check::Level::kFull);
  const auto subs = ps_->subscribers_of(0);
  ASSERT_GE(subs.size(), 2u);
  const PeerId away_a = *subs.begin();
  const PeerId away_b = *std::next(subs.begin());

  // Control: no mailbox — the crash loses both queued messages for good.
  {
    fault::FaultPlan plan(fault::FaultSpec{}, 7, g_.num_nodes());
    NotificationEngine engine(*ps_, *net_);
    engine.set_fault_plan(&plan);
    RetryPolicy policy;
    policy.enabled = true;
    engine.set_retry_policy(policy);
    sys_->set_peer_online(away_a, false);
    sys_->set_peer_online(away_b, false);
    engine.invalidate_trees();
    engine.publish(0, 0.0);
    engine.run_all();
    EXPECT_EQ(engine.pending_replays(), 2u);
    engine.on_peer_crashed(0, engine.now_s());
    EXPECT_EQ(engine.stats().replay_dropped_crash, 2u);
    sys_->set_peer_online(away_a, true);
    EXPECT_EQ(engine.replay_missed(away_a, engine.now_s()), 0u);  // lost
    sys_->set_peer_online(away_a, false);
  }

  fault::FaultPlan plan(fault::FaultSpec{}, 7, g_.num_nodes());
  NotificationEngine engine(*ps_, *net_);
  engine.set_fault_plan(&plan);
  RetryPolicy policy;
  policy.enabled = true;
  engine.set_retry_policy(policy);
  MailboxManager mb(engine.event_engine(), *sys_, *net_,
                    MailboxPolicy{}, 7);
  mb.set_fault_plan(&plan);
  mb.set_availability_fn([this](PeerId p) { return sys_->cma_of(p); });
  engine.set_mailbox(&mb);

  engine.invalidate_trees();
  const auto id = engine.publish(0, 0.0);
  engine.run_all();
  EXPECT_EQ(mb.stats().replicated, 2u);
  EXPECT_EQ(mb.stats().quorum_writes, 2u);

  // Publisher dies: the local replay queue entries are dropped...
  plan.force_crash(0);
  sys_->set_peer_online(0, false);
  engine.on_peer_crashed(0, engine.now_s());
  EXPECT_EQ(engine.stats().replay_dropped_crash, 2u);

  // ...then one of away_a's mailbox replicas dies too. Anti-entropy hands
  // the copy off from a surviving replica to a fresh candidate.
  const auto replicas = mb.replicas_of(id, away_a);
  ASSERT_EQ(replicas.size(), mb.policy().replicas);
  plan.force_crash(replicas.front());
  sys_->set_peer_online(replicas.front(), false);
  engine.on_peer_crashed(replicas.front(), engine.now_s());
  EXPECT_GE(mb.stats().handoffs, 1u);
  engine.run_all();  // the handoff store/ack completes

  sys_->set_peer_online(away_a, true);
  EXPECT_EQ(engine.replay_missed(away_a, engine.now_s()), 1u);
  sys_->set_peer_online(away_b, true);
  EXPECT_EQ(engine.replay_missed(away_b, engine.now_s()), 1u);
  EXPECT_TRUE(engine.record(id).delivered_to.contains(away_a));
  EXPECT_TRUE(engine.record(id).delivered_to.contains(away_b));
  EXPECT_EQ(engine.stats().mailbox_replays, 2u);
  EXPECT_EQ(mb.stats().replay_lost, 0u);
  EXPECT_EQ(mb.pending(), 0u);
  // Replaying again is a no-op, not a duplicate delivery.
  EXPECT_EQ(engine.replay_missed(away_a, engine.now_s()), 0u);
}

TEST_F(MailboxTest, ToleratesMinorityByzantineAcceptors) {
  // k = 3, quorum 2: any entry with at most floor((k-1)/2) = 1 byzantine
  // replica keeps >= 2 honest stored copies (byzantine acceptors always
  // ack, so the write settles, but they withhold at replay) and must be
  // recoverable.
  const check::ScopedLevel full(check::Level::kFull);
  fault::FaultSpec spec;
  spec.byzantine = 0.3;
  fault::FaultPlan plan(spec, 11, g_.num_nodes());
  runtime::EventEngine q;
  MailboxManager mb(q, *sys_, *net_, MailboxPolicy{}, 11);
  mb.set_fault_plan(&plan);

  const PeerId source = 0;
  std::vector<PeerId> subscribers;
  for (PeerId s = 1; s <= 40; ++s) subscribers.push_back(s);
  for (std::size_t i = 0; i < subscribers.size(); ++i) {
    mb.replicate(static_cast<MessageId>(i + 1), subscribers[i], source,
                 0.0);
  }
  q.run();
  EXPECT_EQ(mb.stats().replicated, subscribers.size());
  // Byzantine acceptors always ack, so every write settles at quorum.
  EXPECT_EQ(mb.stats().quorum_writes, subscribers.size());

  std::size_t tolerable = 0;
  for (std::size_t i = 0; i < subscribers.size(); ++i) {
    const auto msg = static_cast<MessageId>(i + 1);
    const auto replicas = mb.replicas_of(msg, subscribers[i]);
    const auto byz = static_cast<std::size_t>(
        std::count_if(replicas.begin(), replicas.end(),
                      [&](PeerId p) { return plan.byzantine(p); }));
    const bool within_bound = byz + 1 <= (mb.policy().replicas + 1) / 2;
    const auto served = mb.replay(subscribers[i], q.now_s());
    if (within_bound) {
      ++tolerable;
      EXPECT_EQ(served, std::vector<MessageId>{msg})
          << "entry with " << byz << " byzantine replicas lost";
    }
  }
  // The 30% byzantine population must have left plenty of within-bound
  // entries, or the loop proved nothing.
  EXPECT_GE(tolerable, subscribers.size() / 2);
  EXPECT_GT(plan.stats().false_acks + plan.stats().duplicate_acks, 0u);
}

TEST_F(MailboxTest, LateCopyBeatsReplayWithoutDoubleDelivery) {
  // The rec.missed.erase(to) race: a subscriber offline at publish time is
  // queued for replay (and replicated to its mailbox), but the publisher's
  // stale cached tree still routes a copy toward it. The subscriber comes
  // back before the copy arrives, the copy delivers first — replay must
  // then be a no-op on both tiers, with the dedup checks enforced.
  const check::ScopedLevel full(check::Level::kFull);
  NotificationEngine engine(*ps_, *net_);
  RetryPolicy policy;
  policy.enabled = true;
  engine.set_retry_policy(policy);
  MailboxManager mb(engine.event_engine(), *sys_, *net_,
                    MailboxPolicy{}, 42);
  engine.set_mailbox(&mb);

  const auto subs = ps_->subscribers_of(0);
  ASSERT_FALSE(subs.empty());
  const PeerId racer = *subs.begin();

  // Warm the per-publisher tree cache with everyone online.
  const auto id1 = engine.publish(0, 0.0);
  engine.run_all();
  EXPECT_TRUE(engine.record(id1).delivered_to.contains(racer));

  // Offline at publish: queued for replay + replicated. The cached tree is
  // deliberately NOT invalidated, so the copy is still routed.
  sys_->set_peer_online(racer, false);
  const double t2 = engine.now_s() + 10.0;
  const auto id2 = engine.publish(0, t2);
  EXPECT_EQ(engine.pending_replays(), 1u);
  EXPECT_EQ(mb.stats().replicated, 1u);
  EXPECT_EQ(engine.stats().tree_cache_hits, 1u);

  // Back online before the copy's arrival: the in-flight copy wins.
  engine.run_until(t2);
  sys_->set_peer_online(racer, true);
  engine.run_all();

  const auto& rec = engine.record(id2);
  EXPECT_TRUE(rec.delivered_to.contains(racer));
  EXPECT_TRUE(rec.missed.empty());
  EXPECT_EQ(mb.stats().superseded, 1u);
  EXPECT_EQ(mb.pending(), 0u);
  // The replay queue still holds the stale entry; replaying serves nothing
  // and the dedup invariant (validate_replay_dedup) holds under kFull.
  EXPECT_EQ(engine.replay_missed(racer, engine.now_s()), 0u);
  EXPECT_EQ(engine.stats().replays, 0u);
  EXPECT_EQ(engine.stats().mailbox_replays, 0u);
  EXPECT_EQ(rec.duplicates_suppressed, 0u);
}

}  // namespace
}  // namespace sel::pubsub

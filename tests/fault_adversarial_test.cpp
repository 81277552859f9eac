// Adversarial durability tier: correlated crash bursts, byzantine mailbox
// acceptors, and the end-to-end soak acceptance — a publisher crashing
// mid-dissemination with a burst-crashed mailbox replica must not lose
// notifications when the replicated-mailbox tier is armed.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "common/rng.hpp"
#include "graph/profiles.hpp"
#include "pubsub/engine.hpp"
#include "pubsub/mailbox.hpp"
#include "pubsub/multipath.hpp"
#include "select/protocol.hpp"
#include "sim/churn.hpp"

namespace sel::pubsub {
namespace {

using overlay::PeerId;

TEST(FaultSpecAdversarial, ParsesAndRoundTripsAdversarialKnobs) {
  const auto spec = fault::FaultSpec::parse(
      "byz=0.15,bursts=2,burst_width=16,burst_spacing_s=450");
  EXPECT_DOUBLE_EQ(spec.byzantine, 0.15);
  EXPECT_EQ(spec.bursts, 2u);
  EXPECT_EQ(spec.burst_width, 16u);
  EXPECT_DOUBLE_EQ(spec.burst_spacing_s, 450.0);
  EXPECT_TRUE(spec.any());

  const auto back = fault::FaultSpec::parse(spec.to_string());
  EXPECT_DOUBLE_EQ(back.byzantine, spec.byzantine);
  EXPECT_EQ(back.bursts, spec.bursts);
  EXPECT_EQ(back.burst_width, spec.burst_width);
  EXPECT_DOUBLE_EQ(back.burst_spacing_s, spec.burst_spacing_s);

  // The long alias parses too, and a bursts-only spec is active.
  EXPECT_DOUBLE_EQ(fault::FaultSpec::parse("byzantine=0.5").byzantine, 0.5);
  EXPECT_TRUE(fault::FaultSpec::parse("bursts=1").any());
}

TEST(FaultPlanAdversarial, BurstScheduleIsPureInSeedAndSpec) {
  fault::FaultSpec spec;
  spec.bursts = 3;
  spec.burst_width = 8;
  spec.burst_spacing_s = 100.0;
  const fault::FaultPlan a(spec, 42, 64);
  const fault::FaultPlan b(spec, 42, 64);
  EXPECT_EQ(a.num_domains(), 8u);
  ASSERT_EQ(a.bursts().size(), 3u);
  for (std::size_t i = 0; i < a.bursts().size(); ++i) {
    const auto& ba = a.bursts()[i];
    const auto& bb = b.bursts()[i];
    EXPECT_DOUBLE_EQ(ba.at_s, (static_cast<double>(i) + 1.0) * 100.0);
    EXPECT_EQ(ba.domain, bb.domain);
    EXPECT_EQ(ba.peers, bb.peers);
    EXPECT_LT(ba.domain, a.num_domains());
    // The member list is exactly the peers hashed into the domain.
    for (const auto p : ba.peers) {
      EXPECT_EQ(a.failure_domain(p), ba.domain);
    }
    EXPECT_TRUE(std::is_sorted(ba.peers.begin(), ba.peers.end()));
  }
  // Domains partition the peer set.
  for (std::uint32_t p = 0; p < 64; ++p) {
    EXPECT_LT(a.failure_domain(p), a.num_domains());
    EXPECT_EQ(a.failure_domain(p), b.failure_domain(p));
  }
}

TEST(FaultPlanAdversarial, ApplyBurstCrashesTheWholeDomainOnce) {
  fault::FaultSpec spec;
  spec.bursts = 1;
  spec.burst_width = 8;
  fault::FaultPlan plan(spec, 7, 64);
  ASSERT_EQ(plan.bursts().size(), 1u);
  const auto& burst = plan.bursts()[0];
  ASSERT_FALSE(burst.peers.empty());

  plan.apply_burst(burst);
  for (const auto p : burst.peers) EXPECT_TRUE(plan.crashed(p));
  EXPECT_EQ(plan.stats().burst_crashes, burst.peers.size());
  // Idempotent: replaying the burst crashes nobody twice.
  plan.apply_burst(burst);
  EXPECT_EQ(plan.stats().burst_crashes, burst.peers.size());

  // force_crash counts under the plain crash counter, once.
  const std::uint32_t victim = plan.crashed(0) ? 1 : 0;
  plan.force_crash(victim);
  plan.force_crash(victim);
  EXPECT_TRUE(plan.crashed(victim));
  EXPECT_EQ(plan.stats().crashes, 1u);
}

TEST(FaultPlanAdversarial, MailboxAckFatesArePureAndHonestPeersStore) {
  fault::FaultSpec spec;
  spec.byzantine = 0.4;
  fault::FaultPlan a(spec, 13, 128);
  fault::FaultPlan b(spec, 13, 128);
  std::size_t byzantine_peers = 0;
  std::size_t false_acks = 0;
  std::size_t duplicate_acks = 0;
  for (std::uint32_t peer = 0; peer < 128; ++peer) {
    EXPECT_EQ(a.byzantine(peer), b.byzantine(peer));
    byzantine_peers += a.byzantine(peer) ? 1 : 0;
    for (std::uint64_t msg = 1; msg <= 4; ++msg) {
      const auto fa = a.mailbox_ack(peer, msg, 5, 0);
      const auto fb = b.mailbox_ack(peer, msg, 5, 0);
      EXPECT_EQ(fa.acked, fb.acked);
      EXPECT_EQ(fa.stored, fb.stored);
      EXPECT_EQ(fa.duplicated, fb.duplicated);
      // Every acceptor acks (byzantine ones lie rather than stay silent).
      EXPECT_TRUE(fa.acked);
      if (!a.byzantine(peer)) {
        EXPECT_TRUE(fa.stored);
        EXPECT_FALSE(fa.duplicated);
        EXPECT_FALSE(a.withholds_replay(peer, msg));
      } else {
        false_acks += fa.stored ? 0 : 1;
        duplicate_acks += fa.duplicated ? 1 : 0;
        EXPECT_TRUE(a.withholds_replay(peer, msg));
      }
    }
  }
  EXPECT_GT(byzantine_peers, 0u);
  EXPECT_LT(byzantine_peers, 128u);
  EXPECT_GT(false_acks, 0u);
  EXPECT_GT(duplicate_acks, 0u);
  EXPECT_EQ(a.stats().false_acks, false_acks);
  EXPECT_EQ(a.stats().duplicate_acks, duplicate_acks);
}

// ---------------------------------------------------------------------------
// Adversarial soak: the ISSUE acceptance scenario end to end.
// ---------------------------------------------------------------------------

class AdversarialSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = graph::make_dataset_graph(graph::profile_by_name("facebook"), 300, 5);
    net_ = std::make_unique<net::NetworkModel>(g_.num_nodes(), 5);
    rebuild_system();
  }

  /// Fresh system state (overlay + CMA): the availability observer mutates
  /// per-peer CMA during a soak, and mailbox placement reads it — two
  /// same-seed soaks are only comparable from identical starting state.
  void rebuild_system() {
    sys_ = std::make_unique<core::SelectSystem>(g_, core::SelectParams{}, 5,
                                                net_.get());
    sys_->build();
    ps_ = std::make_unique<overlay::PubSubSystem>(*sys_);
  }

  static fault::FaultSpec adversarial_spec() {
    fault::FaultSpec spec;
    spec.drop = 0.05;
    spec.duplicate = 0.01;
    spec.spike = 0.02;
    spec.spike_factor = 4.0;
    spec.stall = 0.01;
    spec.stall_s = 20.0;
    spec.byzantine = 0.15;
    spec.bursts = 2;
    spec.burst_width = 16;
    spec.burst_spacing_s = 450.0;
    return spec;
  }

  struct SoakResult {
    EngineStats stats;
    MailboxStats mailbox;
    fault::FaultPlan::Stats fault;
    /// Per-subscriber delivery over the explicit wanted sets captured at
    /// publish time, subscribers that themselves crashed excused.
    std::size_t wanted = 0;
    std::size_t delivered = 0;
    /// The (message, subscriber) pairs queued on the force-crashed
    /// publisher at its crash — the durability gap scenario.
    std::size_t at_risk = 0;
    std::size_t at_risk_delivered = 0;

    [[nodiscard]] double rate() const {
      return wanted == 0 ? 1.0
                         : static_cast<double>(delivered) /
                               static_cast<double>(wanted);
    }
  };

  SoakResult run_soak(std::uint64_t seed, bool with_mailbox) {
    rebuild_system();
    const auto spec = adversarial_spec();
    fault::FaultPlan plan(spec, seed, g_.num_nodes());
    NotificationEngine engine(*ps_, *net_);
    engine.set_fault_plan(&plan);
    RetryPolicy policy;
    policy.enabled = true;
    policy.ack_timeout_s = 2.0;
    engine.set_retry_policy(policy);
    engine.set_multipath_planner(
        [this](PeerId b) { return plan_multipath(*sys_, g_, b); });
    engine.set_availability_observer([this](PeerId p, bool responsive) {
      sys_->observe_availability(p, responsive);
    });
    MailboxPolicy mpolicy;
    mpolicy.ack_timeout_s = 2.0;
    MailboxManager mailbox(engine.event_engine(), *sys_, *net_,
                           mpolicy, seed);
    if (with_mailbox) {
      mailbox.set_fault_plan(&plan);
      mailbox.set_availability_fn(
          [this](PeerId p) { return sys_->cma_of(p); });
      engine.set_mailbox(&mailbox);
    }

    sim::SessionChurn::Params churn_params;
    churn_params.session_median_s = 3600.0;
    churn_params.offline_median_s = 600.0;
    sim::SessionChurn churn(g_.num_nodes(), churn_params,
                            derive_seed(seed, 1));

    constexpr double kEpochS = 300.0;
    constexpr std::size_t kEpochs = 6;
    constexpr std::size_t kPublishersPerEpoch = 5;
    PeerId next_pub = 0;
    std::size_t next_burst = 0;
    std::size_t forced_crashes = 0;
    constexpr std::size_t kForcedCrashes = 3;
    SoakResult result;
    std::vector<MessageId> ids;
    std::unordered_map<MessageId, std::vector<PeerId>> wanted_sets;
    std::vector<std::pair<MessageId, PeerId>> at_risk_pairs;

    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
      const double t0 = static_cast<double>(epoch) * kEpochS;
      churn.advance_to(t0);
      for (const auto p : churn.last_departures()) {
        sys_->set_peer_online(p, false);
      }
      for (const auto p : churn.last_arrivals()) {
        if (!plan.crashed(p)) {
          sys_->set_peer_online(p, true);
          engine.replay_missed(p, t0);
        }
      }
      // Correlated bursts due by this epoch: whole failure domains die at
      // once; the engine drops their local replay queues and the mailbox
      // runs its anti-entropy handoff.
      while (next_burst < plan.bursts().size() &&
             plan.bursts()[next_burst].at_s <= t0) {
        const auto& burst = plan.bursts()[next_burst];
        plan.apply_burst(burst);
        for (const auto p : burst.peers) {
          sys_->set_peer_online(p, false);
          engine.on_peer_crashed(p, t0);
        }
        ++next_burst;
      }
      for (const auto c : plan.crashed_peers()) {
        sys_->set_peer_online(c, false);
      }
      engine.invalidate_trees();
      for (std::size_t m = 0; m < kPublishersPerEpoch; ++m) {
        while (plan.crashed(next_pub % 40)) ++next_pub;
        const PeerId pub = next_pub % 40;
        ++next_pub;
        const auto id =
            engine.publish(pub, t0 + static_cast<double>(m));
        ids.push_back(id);
        auto& wset = wanted_sets[id];
        for (const PeerId s : ps_->subscribers_of(pub)) {
          if (sys_->peer_online(s)) wset.push_back(s);
        }
      }
      // Mid-soak, crash publishers still holding queued replays — the
      // exact durability gap the mailbox closes. Capture what was at
      // risk; one forced crash per epoch keeps it mid-dissemination.
      if (forced_crashes < kForcedCrashes && epoch >= 1) {
        engine.run_until(t0 + 150.0);
        for (const auto id : ids) {
          const auto& rec = engine.record(id);
          if (plan.crashed(rec.publisher)) continue;
          // Crashed subscribers sit in missed sets too but never return;
          // the durability scenario needs at least one that will.
          std::vector<PeerId> live_missed;
          for (const PeerId s : rec.missed) {
            if (!plan.crashed(s)) live_missed.push_back(s);
          }
          if (live_missed.empty()) continue;
          for (const PeerId s : live_missed) {
            at_risk_pairs.emplace_back(id, s);
          }
          plan.force_crash(rec.publisher);
          sys_->set_peer_online(rec.publisher, false);
          engine.on_peer_crashed(rec.publisher, t0 + 150.0);
          ++forced_crashes;
          break;
        }
      }
      engine.run_until(t0 + kEpochS);
    }
    engine.run_all();

    // Everyone still alive returns; both replay tiers drain.
    for (PeerId p = 0; p < g_.num_nodes(); ++p) {
      if (plan.crashed(p)) continue;
      sys_->set_peer_online(p, true);
      engine.replay_missed(p, engine.now_s());
    }

    EXPECT_GT(forced_crashes, 0u) << "no publisher held queued replays";
    for (const auto id : ids) {
      const auto& rec = engine.record(id);
      for (const PeerId s : wanted_sets.at(id)) {
        if (plan.crashed(s)) continue;  // the subscriber itself died
        ++result.wanted;
        if (rec.delivered_to.contains(s)) ++result.delivered;
      }
    }
    for (const auto& [id, s] : at_risk_pairs) {
      if (plan.crashed(s)) continue;
      ++result.at_risk;
      if (engine.record(id).delivered_to.contains(s)) {
        ++result.at_risk_delivered;
      }
    }
    result.stats = engine.stats();
    result.mailbox = mailbox.stats();
    result.fault = plan.stats();
    return result;
  }

  graph::SocialGraph g_;
  std::unique_ptr<net::NetworkModel> net_;
  std::unique_ptr<core::SelectSystem> sys_;
  std::unique_ptr<overlay::PubSubSystem> ps_;
};

TEST_F(AdversarialSoakTest, MailboxTierMeetsTheDurabilityBar) {
  // SEL_CHECK=full throughout: quorum, replay-dedup and durability
  // invariants are enforced on every transition of the soak.
  const check::ScopedLevel full(check::Level::kFull);
  const auto r = run_soak(42, /*with_mailbox=*/true);
  ASSERT_GT(r.wanted, 200u);
  // Acceptance bar: >= 99% of surviving wanted subscribers delivered
  // despite drops, bursts, byzantine acceptors and the publisher crash.
  EXPECT_GE(r.rate(), 0.99)
      << r.delivered << "/" << r.wanted
      << " missed=" << r.stats.missed
      << " dropped_crash=" << r.stats.replay_dropped_crash
      << " mailbox_replays=" << r.stats.mailbox_replays
      << " replay_lost=" << r.mailbox.replay_lost;
  // The adversary actually showed up...
  EXPECT_GT(r.fault.burst_crashes, 0u);
  EXPECT_GT(r.fault.false_acks, 0u);
  EXPECT_GT(r.stats.replay_dropped_crash, 0u);
  // ...and the mailbox tier did the recovering: quorum writes settled,
  // crash-orphaned messages came back from replicas.
  EXPECT_GT(r.mailbox.quorum_writes, 0u);
  EXPECT_GT(r.stats.mailbox_replays, 0u);
  // The messages queued on the force-crashed publisher — lost for good
  // without the mailbox — were (almost all; byzantine-majority replica
  // sets may sacrifice stragglers) delivered anyway.
  ASSERT_GT(r.at_risk, 0u);
  EXPECT_GE(r.at_risk_delivered * 10, r.at_risk * 9)
      << r.at_risk_delivered << "/" << r.at_risk;
}

TEST_F(AdversarialSoakTest, WithoutMailboxThePublisherCrashLosesMessages) {
  const auto r = run_soak(42, /*with_mailbox=*/false);
  // Same adversary, no durability tier: the force-crashed publisher's
  // queued messages are unrecoverable.
  EXPECT_GT(r.stats.replay_dropped_crash, 0u);
  EXPECT_EQ(r.stats.mailbox_replays, 0u);
  EXPECT_EQ(r.mailbox.replicated, 0u);
  ASSERT_GT(r.at_risk, 0u);
  EXPECT_LT(r.at_risk_delivered, r.at_risk)
      << "crash-dropped messages were delivered without any replica tier";
}

TEST_F(AdversarialSoakTest, SameSeedAdversarialSoaksAreBitIdentical) {
  const check::ScopedLevel full(check::Level::kFull);
  const auto a = run_soak(1234, /*with_mailbox=*/true);
  const auto b = run_soak(1234, /*with_mailbox=*/true);
  EXPECT_EQ(a.stats.messages_published, b.stats.messages_published);
  EXPECT_EQ(a.stats.deliveries, b.stats.deliveries);
  EXPECT_EQ(a.stats.wanted, b.stats.wanted);
  EXPECT_EQ(a.stats.retries, b.stats.retries);
  EXPECT_EQ(a.stats.failovers, b.stats.failovers);
  EXPECT_EQ(a.stats.replays, b.stats.replays);
  EXPECT_EQ(a.stats.missed, b.stats.missed);
  EXPECT_EQ(a.stats.replay_dropped_crash, b.stats.replay_dropped_crash);
  EXPECT_EQ(a.stats.mailbox_replays, b.stats.mailbox_replays);
  EXPECT_EQ(a.stats.delivery_latency_s.count(),
            b.stats.delivery_latency_s.count());
  EXPECT_EQ(a.stats.delivery_latency_s.mean(),
            b.stats.delivery_latency_s.mean());
  // The mailbox pipeline replays bit-identically too: stores, acks,
  // retries, handoffs and replays all land on the same draws.
  EXPECT_EQ(a.mailbox.replicated, b.mailbox.replicated);
  EXPECT_EQ(a.mailbox.store_attempts, b.mailbox.store_attempts);
  EXPECT_EQ(a.mailbox.acks, b.mailbox.acks);
  EXPECT_EQ(a.mailbox.duplicate_acks, b.mailbox.duplicate_acks);
  EXPECT_EQ(a.mailbox.retries, b.mailbox.retries);
  EXPECT_EQ(a.mailbox.quorum_writes, b.mailbox.quorum_writes);
  EXPECT_EQ(a.mailbox.quorum_degraded, b.mailbox.quorum_degraded);
  EXPECT_EQ(a.mailbox.handoffs, b.mailbox.handoffs);
  EXPECT_EQ(a.mailbox.replays, b.mailbox.replays);
  EXPECT_EQ(a.mailbox.replay_lost, b.mailbox.replay_lost);
  EXPECT_EQ(a.mailbox.superseded, b.mailbox.superseded);
  EXPECT_EQ(a.fault.burst_crashes, b.fault.burst_crashes);
  EXPECT_EQ(a.fault.false_acks, b.fault.false_acks);
  EXPECT_EQ(a.fault.duplicate_acks, b.fault.duplicate_acks);
  EXPECT_EQ(a.wanted, b.wanted);
  EXPECT_EQ(a.delivered, b.delivered);
}

}  // namespace
}  // namespace sel::pubsub

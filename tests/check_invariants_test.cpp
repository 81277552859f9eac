// Tests for the SEL_CHECK invariant-checker layer (src/check/).
//
// Structure: every validator first passes on a healthy structure, then
// detects a violation seeded through check/corrupt.hpp (the production API
// cannot create one). Off-mode tests pin the contract that SEL_CHECK=off
// adds no counters or validation work on wired call sites, and the
// full-level integration tests run each wired layer end-to-end.
#include "check/check.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <vector>

#include "check/corrupt.hpp"
#include "check/overlay_checks.hpp"
#include "check/protocol_checks.hpp"
#include "check/tree_checks.hpp"
#include "graph/profiles.hpp"
#include "lsh/lsh.hpp"
#include "net/network_model.hpp"
#include "obs/metrics.hpp"
#include "overlay/overlay.hpp"
#include "overlay/tree.hpp"
#include "pubsub/engine.hpp"
#include "select/protocol.hpp"

namespace sel::check {
namespace {

using overlay::RingSubstrate;
using overlay::PeerId;
using testing::Corruptor;

RingSubstrate ring_overlay(std::size_t n) {
  RingSubstrate ov(n);
  for (PeerId p = 0; p < n; ++p) {
    ov.join(p, net::OverlayId(static_cast<double>(p) / static_cast<double>(n)));
  }
  ov.rebuild_ring();
  return ov;
}

// -- levels and failure routing ----------------------------------------------

TEST(CheckLevel, ScopedOverrideAndEnabled) {
  const ScopedLevel full(Level::kFull);
  EXPECT_TRUE(enabled(Level::kCheap));
  EXPECT_TRUE(enabled(Level::kFull));
  {
    const ScopedLevel off(Level::kOff);
    EXPECT_FALSE(enabled(Level::kCheap));
    EXPECT_FALSE(enabled(Level::kFull));
  }
  EXPECT_TRUE(enabled(Level::kFull));
}

TEST(CheckEnforce, RoutesViolationsToCapture) {
  const ScopedFailureCapture capture;
  EXPECT_TRUE(enforce(std::nullopt));
  EXPECT_TRUE(capture.empty());
  EXPECT_FALSE(enforce(Violation{"test.invariant", "seeded"}));
  ASSERT_EQ(capture.violations().size(), 1u);
  EXPECT_EQ(capture.violations()[0].invariant, "test.invariant");
}

// -- overlay: ring ------------------------------------------------------------

TEST(CheckRing, HealthyRingPasses) {
  const auto ov = ring_overlay(8);
  EXPECT_FALSE(validate_ring(ov).has_value());
  EXPECT_FALSE(validate_ring_sample(ov).has_value());
}

TEST(CheckRing, DetectsCorruptedSuccessor) {
  auto ov = ring_overlay(8);
  Corruptor::set_successor(ov, 0, 5);
  const auto v = validate_ring(ov);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "overlay.ring.symmetry");
  // The cheap sample sweep sees it too (stride 1 at this size).
  EXPECT_TRUE(validate_ring_sample(ov).has_value());
}

TEST(CheckRing, DetectsUnsortedIds) {
  auto ov = ring_overlay(8);
  // Stale links after a reassignment: mutually consistent walk, ids out of
  // order until rebuild_ring().
  ov.set_id(3, net::OverlayId(0.9));
  const auto v = validate_ring(ov);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "overlay.ring.sorted");
}

// -- overlay: long-link symmetry ----------------------------------------------

TEST(CheckLinks, HealthyLinksPass) {
  auto ov = ring_overlay(8);
  ASSERT_TRUE(ov.add_long_link(1, 4));
  ASSERT_TRUE(ov.add_long_link(2, 6));
  EXPECT_FALSE(validate_peer_links(ov, 1).has_value());
  EXPECT_FALSE(validate_link_symmetry(ov).has_value());
}

TEST(CheckLinks, DetectsAsymmetricLink) {
  auto ov = ring_overlay(8);
  ASSERT_TRUE(ov.add_long_link(1, 4));
  Corruptor::drop_in_link(ov, 1, 4);
  const auto v = validate_peer_links(ov, 1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "overlay.links.symmetry");
  EXPECT_TRUE(validate_link_symmetry(ov).has_value());
}

// -- protocol: id reassignment, LSH, link budget ------------------------------

TEST(CheckIdStep, DampedStepTowardCentroidPasses) {
  EXPECT_FALSE(validate_id_step(net::OverlayId(0.0), net::OverlayId(0.3),
                                net::OverlayId(0.1), 0.5)
                   .has_value());
}

TEST(CheckIdStep, DetectsMoveAwayFromCentroid) {
  const auto v = validate_id_step(net::OverlayId(0.0), net::OverlayId(0.3),
                                  net::OverlayId(0.9), 0.5);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "select.reassign.monotone");
}

TEST(CheckIdStep, DetectsOvershoot) {
  const auto v = validate_id_step(net::OverlayId(0.0), net::OverlayId(0.3),
                                  net::OverlayId(0.28), 0.5);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "select.reassign.overshoot");
}

TEST(CheckLsh, HealthyIndexPasses) {
  lsh::LshIndex index(/*dim=*/16, /*buckets=*/4, /*bits_per_hash=*/3,
                      /*seed=*/11);
  for (std::uint32_t p = 0; p < 10; ++p) {
    DynamicBitset bm(16);
    bm.set(p % 16);
    bm.set((3 * p + 1) % 16);
    index.insert(p, bm);
  }
  EXPECT_FALSE(validate_lsh_bucket_bound(index, 4).has_value());
  EXPECT_FALSE(validate_lsh_index(index, 4).has_value());
}

TEST(CheckLsh, DetectsBucketCountMismatch) {
  const lsh::LshIndex index(16, 4, 3, 11);
  const auto v = validate_lsh_bucket_bound(index, 5);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "select.lsh.bucket_count");
}

TEST(CheckLinkBudget, DetectsOverBudgetDegree) {
  auto ov = ring_overlay(8);
  ASSERT_TRUE(ov.add_long_link(1, 4));
  ASSERT_TRUE(ov.add_long_link(1, 6));
  EXPECT_FALSE(validate_link_budget(ov, 1, 2).has_value());
  const auto v = validate_link_budget(ov, 1, 1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "select.links.out_budget");
}

// -- tree: acyclicity and exactly-once ----------------------------------------

overlay::DisseminationTree small_tree() {
  overlay::DisseminationTree tree(0);
  const PeerId path1[] = {0, 1, 2};
  const PeerId path2[] = {0, 3};
  tree.add_path(path1);
  tree.add_path(path2);
  return tree;
}

TEST(CheckTree, HealthyTreePasses) {
  const auto tree = small_tree();
  EXPECT_FALSE(validate_tree(tree).has_value());
}

TEST(CheckTree, DetectsDuplicateDeliveryNode) {
  auto tree = small_tree();
  Corruptor::add_duplicate_child(tree, 0, 2);
  const auto v = validate_tree(tree);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "tree.unique_nodes");
}

TEST(CheckTree, DetectsParentChildMismatch) {
  auto tree = small_tree();
  Corruptor::make_cycle(tree, 2, 3);
  EXPECT_TRUE(validate_tree(tree).has_value());
}

TEST(CheckTree, DetectsParentChainCycle) {
  // Chain 0 -> 1 -> 2 -> 3, then reparent 1 under its descendant 3: the
  // parent/children tables stay mutually consistent, so only the bounded
  // walk to the root exposes the cycle.
  overlay::DisseminationTree tree(0);
  const PeerId chain[] = {0, 1, 2, 3};
  tree.add_path(chain);
  Corruptor::reparent(tree, 1, 3);
  const auto v = validate_tree(tree);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "tree.acyclic");
}

TEST(CheckDelivery, CountsWithinBoundsPass) {
  EXPECT_FALSE(validate_delivery_count(/*delivered=*/3, /*max_deliveries=*/5,
                                       /*wanted=*/3, /*completed=*/true)
                   .has_value());
  // Churn revival: more deliveries than were wanted at publish time is fine
  // as long as the tree-membership bound holds.
  EXPECT_FALSE(validate_delivery_count(4, 5, 3, true).has_value());
}

TEST(CheckDelivery, DetectsDuplicateDelivery) {
  const auto v = validate_delivery_count(6, 5, 3, false);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "pubsub.exactly_once");
}

TEST(CheckDelivery, DetectsIncompleteCompletion) {
  const auto v = validate_delivery_count(2, 5, 3, true);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "pubsub.completion");
}

// -- off-mode cost contract ---------------------------------------------------

TEST(CheckOffMode, WiredSitesAddNoCounters) {
  const ScopedLevel off(Level::kOff);
  auto& validations =
      obs::MetricsRegistry::global().counter("check.validations");
  auto& violations = obs::MetricsRegistry::global().counter("check.violations");
  const auto v0 = validations.value();
  const auto f0 = violations.value();

  auto ov = ring_overlay(32);     // wired: rebuild_ring
  ov.add_long_link(1, 4);         // wired: add_long_link
  ov.remove_long_link(1, 4);      // wired: remove_long_link
  EXPECT_EQ(validations.value(), v0);
  EXPECT_EQ(violations.value(), f0);
}

TEST(CheckOffMode, CheapLevelCountsValidations) {
  const ScopedLevel cheap(Level::kCheap);
  auto& validations =
      obs::MetricsRegistry::global().counter("check.validations");
  const auto v0 = validations.value();
  auto ov = ring_overlay(32);
  EXPECT_GT(validations.value(), v0);
}

// -- full-level integration: every wired layer end-to-end ---------------------

TEST(CheckFullIntegration, BuildAndPublishHoldAllInvariants) {
  const ScopedLevel full(Level::kFull);
  const ScopedFailureCapture capture;

  const auto g =
      graph::make_dataset_graph(graph::profile_by_name("facebook"), 200, 7);
  net::NetworkModel net(g.num_nodes(), 7);
  core::SelectSystem sys(g, core::SelectParams{}, 7, &net);
  sys.build();  // protocol rounds: id steps, LSH bounds, link symmetry, ring
  const overlay::PubSubSystem ps(sys);
  pubsub::NotificationEngine engine(ps, net);
  engine.publish(0, 0.0);
  engine.run_all();  // tree validation + delivery accounting

  EXPECT_TRUE(capture.empty())
      << capture.violations().front().invariant << ": "
      << capture.violations().front().detail;
}

}  // namespace
}  // namespace sel::check

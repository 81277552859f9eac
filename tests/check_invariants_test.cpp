// Tests for the SEL_CHECK invariant-checker layer (src/check/).
//
// Structure: every validator first passes on a healthy structure, then
// detects a violation seeded through Corruptor below (the production API
// cannot create one). Off-mode tests pin the contract that SEL_CHECK=off
// adds no counters or validation work on wired call sites, and the
// full-level integration tests run each wired layer end-to-end.
#include "check/check.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "check/overlay_checks.hpp"
#include "check/protocol_checks.hpp"
#include "check/tree_checks.hpp"
#include "common/assert.hpp"
#include "graph/profiles.hpp"
#include "lsh/lsh.hpp"
#include "net/network_model.hpp"
#include "obs/metrics.hpp"
#include "overlay/overlay.hpp"
#include "overlay/tree.hpp"
#include "pubsub/engine.hpp"
#include "select/protocol.hpp"

// Seeded corruption of overlay and tree structures. The production API is
// deliberately unable to create a violation (add_long_link keeps both
// tables in step, DisseminationTree::add_child refuses duplicates), so
// Corruptor is a friend of the two structures and breaks them on purpose.
namespace sel::check::testing {

struct Corruptor {
  /// Seeds an asymmetric routing link: removes `from` from to's in_links
  /// while leaving from's out_link in place.
  static void drop_in_link(overlay::RingSubstrate& ov, overlay::PeerId from,
                           overlay::PeerId to) {
    auto& ins = ov.peer(to).in_links;
    ins.erase(std::remove(ins.begin(), ins.end(), from), ins.end());
  }

  /// Corrupts the ring by rewiring p's successor pointer.
  static void set_successor(overlay::RingSubstrate& ov, overlay::PeerId p,
                            overlay::PeerId succ) {
    ov.peer(p).succ = succ;
  }

  /// Seeds a duplicate delivery: appends `child` to parent's child list and
  /// the delivery order again, as a buggy tree merge would. The index keeps
  /// the child's first position.
  static void add_duplicate_child(overlay::DisseminationTree& tree,
                                  overlay::PeerId parent,
                                  overlay::PeerId child) {
    const auto up = tree.position(parent);
    const auto first = tree.position(child);
    SEL_EXPECTS(up != overlay::DisseminationTree::kNoPos &&
                first != overlay::DisseminationTree::kNoPos);
    tree.attach(up, child);
  }

  /// Seeds a parent-chain cycle between two non-root nodes.
  static void make_cycle(overlay::DisseminationTree& tree, overlay::PeerId a,
                         overlay::PeerId b) {
    const auto pa = tree.position(a);
    const auto pb = tree.position(b);
    tree.links_[pa].parent = pb;
    tree.links_[pb].parent = pa;
  }

  /// Moves `node` under `new_parent`, keeping parent and children tables
  /// mutually consistent — the corruption a naive tree-repair pass would
  /// produce. Reparenting a node onto one of its own descendants yields a
  /// cycle that only the bounded root-walk can see.
  static void reparent(overlay::DisseminationTree& tree, overlay::PeerId node,
                       overlay::PeerId new_parent) {
    using Pos = overlay::DisseminationTree::Pos;
    constexpr Pos kNoPos = overlay::DisseminationTree::kNoPos;
    auto& links = tree.links_;
    const Pos pos = tree.position(node);
    const Pos up = tree.position(new_parent);
    // Unlink from the old parent's sibling chain.
    auto& old = links[links[pos].parent];
    Pos prev = kNoPos;
    for (Pos c = old.first_child; c != pos; c = links[c].next_sibling) {
      prev = c;
    }
    (prev == kNoPos ? old.first_child : links[prev].next_sibling) =
        links[pos].next_sibling;
    if (old.last_child == pos) old.last_child = prev;
    --old.child_count;
    // Append to the new parent's chain.
    links[pos].parent = up;
    links[pos].next_sibling = kNoPos;
    auto& fresh = links[up];
    (fresh.first_child == kNoPos ? fresh.first_child
                                 : links[fresh.last_child].next_sibling) = pos;
    fresh.last_child = pos;
    ++fresh.child_count;
  }
};

}  // namespace sel::check::testing

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

/// Ten friends at positions 0..9, each indexed under its own bitmap.
std::vector<DynamicBitset> index_ten_friends(lsh::LshIndex& index) {
  std::vector<DynamicBitset> bitmaps;
  for (std::uint32_t p = 0; p < 10; ++p) {
    DynamicBitset bm(16);
    bm.set(p % 16);
    bm.set((3 * p + 1) % 16);
    index.append(100 + p, p, bm);
    bitmaps.push_back(std::move(bm));
  }
  return bitmaps;
}

TEST(CheckLsh, HealthyIndexPasses) {
  lsh::LshIndex index(/*dim=*/16, /*buckets=*/4, /*bits_per_hash=*/3,
                      /*seed=*/11);
  const auto bitmaps = index_ten_friends(index);
  EXPECT_FALSE(validate_lsh_bucket_bound(index, 4).has_value());
  EXPECT_FALSE(validate_lsh_index(index, 4, [&](std::uint32_t at) -> const
                                  DynamicBitset& { return bitmaps[at]; })
                   .has_value());
}

TEST(CheckLsh, DetectsMisplacedEntry) {
  // The owner's bitmap for one friend moves after indexing (a relink that
  // should have rebuilt the index did not): the entry no longer hashes to
  // the bucket that holds it.
  lsh::LshIndex index(16, 4, 3, 11);
  auto bitmaps = index_ten_friends(index);
  const std::size_t home = index.bucket_of(bitmaps[0]);
  DynamicBitset moved(16);
  for (std::size_t bit = 0; bit < 16 && index.bucket_of(moved) == home;
       ++bit) {
    moved.set(bit);
  }
  ASSERT_NE(index.bucket_of(moved), home);
  bitmaps[0] = moved;
  const auto v = validate_lsh_index(
      index, 4,
      [&](std::uint32_t at) -> const DynamicBitset& { return bitmaps[at]; });
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "select.lsh.misplaced");
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
  const auto v = validate_tree(tree);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "tree.parent_child");
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

// Test support: seeded corruption of overlay and tree structures.
//
// The invariant-checker tests (tests/check_invariants_test.cpp) must prove
// each validator detects a real violation, but the production API is
// deliberately unable to create one (add_long_link keeps both tables in
// step, DisseminationTree::add_child refuses duplicates). Corruptor is a
// friend of the two structures and breaks them on purpose. It must never be
// used outside tests.
#pragma once

#include <algorithm>

#include "common/assert.hpp"
#include "overlay/overlay.hpp"
#include "overlay/tree.hpp"

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

// Dissemination (routing) tree RT_b for a publisher b (paper Sec. II-B).
//
// The tree is assembled by merging the overlay route from the publisher to
// each subscriber: a node's parent is fixed by the first route that reaches
// it, so every node has exactly one parent and the structure stays a tree.
// Relay accounting follows the paper: a relay node is a peer that forwards a
// message it is not itself subscribed to.
//
// Layout is positional: a node's position is its index in nodes() (insertion
// order, root = 0, parents before children), and parent, depth and children
// are arrays by position. One PeerId -> position index serves the PeerId
// API; the message plane walks positions and never looks a peer up per hop.
// Children keep insertion order (a sibling chain), which fixes send order and
// so every equal-time tie-break downstream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_set.hpp"
#include "obs/memory.hpp"
#include "overlay/overlay.hpp"

namespace sel::check::testing {
struct Corruptor;
}

namespace sel::overlay {

class DisseminationTree {
 public:
  /// Index of a node in nodes().
  using Pos = std::uint32_t;
  static constexpr Pos kNoPos = std::numeric_limits<Pos>::max();

  /// A node's children in insertion (send) order, as positions or as peers.
  /// Walks the sibling chain; allocates nothing.
  template <bool kAsPeers>
  class ChildRange {
   public:
    class iterator {
     public:
      using value_type = std::conditional_t<kAsPeers, PeerId, Pos>;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = value_type;
      using iterator_category = std::forward_iterator_tag;

      iterator() = default;
      value_type operator*() const {
        if constexpr (kAsPeers) {
          return tree_->order_[pos_];
        } else {
          return pos_;
        }
      }
      iterator& operator++() {
        pos_ = tree_->links_[pos_].next_sibling;
        return *this;
      }
      iterator operator++(int) {
        iterator prev = *this;
        ++*this;
        return prev;
      }
      bool operator==(const iterator& other) const {
        return pos_ == other.pos_;
      }

     private:
      friend class ChildRange;
      iterator(const DisseminationTree* tree, Pos pos)
          : tree_(tree), pos_(pos) {}
      const DisseminationTree* tree_ = nullptr;
      Pos pos_ = kNoPos;
    };

    [[nodiscard]] iterator begin() const { return {tree_, first_}; }
    [[nodiscard]] iterator end() const { return {tree_, kNoPos}; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

   private:
    friend class DisseminationTree;
    ChildRange(const DisseminationTree* tree, Pos first, std::size_t size)
        : tree_(tree), first_(first), size_(size) {}
    const DisseminationTree* tree_;
    Pos first_;
    std::size_t size_;
  };
  using ChildPositions = ChildRange<false>;
  using ChildPeers = ChildRange<true>;

  explicit DisseminationTree(PeerId root);

  [[nodiscard]] PeerId root() const noexcept { return order_.front(); }

  /// Merges a route path (path[0] must equal root()). Nodes already in the
  /// tree keep their existing parent.
  void add_path(std::span<const PeerId> path);

  /// Attaches `child` under `parent` (which must already be in the tree).
  /// No-op when child is already present.
  void add_child(PeerId parent, PeerId child);

  [[nodiscard]] bool contains(PeerId p) const { return index_.contains(p); }
  /// kInvalidPeer for the root or for nodes outside the tree.
  [[nodiscard]] PeerId parent(PeerId p) const;
  /// Empty for nodes outside the tree.
  [[nodiscard]] ChildPeers children(PeerId p) const;

  /// Number of nodes including the root.
  [[nodiscard]] std::size_t node_count() const noexcept {
    return order_.size();
  }

  /// All nodes, root first, in insertion (delivery) order: the peer at each
  /// position.
  [[nodiscard]] std::span<const PeerId> nodes() const noexcept {
    return order_;
  }

  /// Messages forwarded by p = number of children (each child is one send).
  [[nodiscard]] std::size_t forward_count(PeerId p) const {
    return children(p).size();
  }

  /// Depth of p (root = 0); SIZE_MAX when p is not in the tree.
  [[nodiscard]] std::size_t depth(PeerId p) const;

  /// Nodes that are neither the root nor in `subscribers` — pure relays.
  [[nodiscard]] std::vector<PeerId> relay_nodes(
      const FlatSet<PeerId>& subscribers) const;

  // -- positional view: array reads, no lookup --------------------------
  /// Position of p; kNoPos when p is not in the tree.
  [[nodiscard]] Pos position(PeerId p) const;
  [[nodiscard]] PeerId peer_at(Pos pos) const { return order_[pos]; }
  /// kNoPos for the root.
  [[nodiscard]] Pos parent_at(Pos pos) const { return links_[pos].parent; }
  [[nodiscard]] std::uint32_t depth_at(Pos pos) const {
    return links_[pos].depth;
  }
  [[nodiscard]] ChildPositions children_at(Pos pos) const {
    return {this, links_[pos].first_child, links_[pos].child_count};
  }

 private:
  // Test backdoor for seeding invariant violations (Corruptor in
  // tests/check_invariants_test.cpp).
  friend struct ::sel::check::testing::Corruptor;

  /// Per-position structure. The sibling chain runs first_child ->
  /// next_sibling -> ... -> kNoPos; last_child makes appends O(1).
  struct Links {
    Pos parent = kNoPos;
    std::uint32_t depth = 0;
    Pos first_child = kNoPos;
    Pos last_child = kNoPos;
    Pos next_sibling = kNoPos;
    std::uint32_t child_count = 0;
  };

  /// Appends `child` as the last child of position `parent`.
  void attach(Pos parent, PeerId child);

  // Trees are per-publisher state the dissemination layer caches, so their
  // footprint is attributed to `mem.overlay`.
  using Index = std::unordered_map<
      PeerId, Pos, std::hash<PeerId>, std::equal_to<PeerId>,
      obs::Tagged<std::pair<const PeerId, Pos>, obs::Subsystem::kOverlay>>;

  obs::AccountedVector<PeerId, obs::Subsystem::kOverlay> order_;
  obs::AccountedVector<Links, obs::Subsystem::kOverlay> links_;
  /// Lookup-only (never iterated; order_ carries ordering).
  Index index_;
};

}  // namespace sel::overlay

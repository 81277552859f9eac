// The dissemination layer: subscriber sets, interest functions and
// dissemination-tree construction, composed over *any* Overlay
// (overlay/routing.hpp) rather than inherited into each system.
//
// A PubSubSystem is a read-only view over one Overlay and derives the
// pub/sub behaviour from the overlay's capabilities: a native tree when
// the protocol defines one (Bayeux rendezvous roots), a subscriber-first
// tree when the overlay's links make that profitable (SELECT, OMen), and a
// per-subscriber route merge otherwise. Every harness builds its trees and
// subscriber sets through this class, so every figure compares all systems
// symmetrically.
#pragma once

#include "common/flat_set.hpp"
#include "graph/social_graph.hpp"
#include "overlay/routing.hpp"
#include "overlay/tree.hpp"

namespace sel::overlay {

/// The interest function f : S x B -> {true,false} of the pub/sub model
/// (paper Sec. II-B). A friend that is not interested does not subscribe.
class InterestFunction {
 public:
  virtual ~InterestFunction() = default;
  [[nodiscard]] virtual bool interested(PeerId subscriber,
                                        PeerId publisher) const = 0;
};

class PubSubSystem {
 public:
  /// Borrows the overlay, which must outlive this view; callers route,
  /// build and churn through the overlay itself.
  explicit PubSubSystem(const Overlay& ov) : overlay_(&ov) {}

  [[nodiscard]] const Overlay& overlay() const noexcept { return *overlay_; }

  /// The subscriber set S_b of a publisher: its social friends, filtered by
  /// the interest function when one is installed (f ≡ true otherwise,
  /// matching the paper's evaluation). Ascending-ordered so every loop over
  /// it (tree construction, delivery accounting, report metrics) is
  /// deterministic.
  [[nodiscard]] FlatSet<PeerId> subscribers_of(PeerId publisher) const;

  /// Dissemination tree from `publisher` to all its subscribers.
  /// Unreachable subscribers are simply absent. Composition order:
  /// native_tree() hook → subscriber-first construction (capability) →
  /// per-subscriber route merge.
  [[nodiscard]] DisseminationTree build_tree(PeerId publisher) const;

  /// Installs an interest function (not owned; may be null to reset).
  void set_interest_function(const InterestFunction* f) { interest_ = f; }
  [[nodiscard]] const InterestFunction* interest_function() const noexcept {
    return interest_;
  }

 private:
  const Overlay* overlay_;
  const InterestFunction* interest_ = nullptr;
};

/// Subscriber-first tree construction: BFS from the publisher over overlay
/// links *between subscribers* (a subscriber that received the message
/// forwards it to fellow subscribers it is directly connected to — zero
/// relay nodes on those branches), then one-relay lookahead patches, then a
/// full overlay route for anything still unreached. SELECT (Sec. III-E,
/// lookahead trees over friend links) and OMen (topic-connected overlays)
/// disseminate this way. Offline peers never enter the tree.
[[nodiscard]] DisseminationTree subscriber_first_tree(
    const Overlay& ov, const FlatSet<PeerId>& subscribers, PeerId publisher);

}  // namespace sel::overlay

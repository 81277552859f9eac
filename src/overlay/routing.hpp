// The minimal routing concept every overlay under evaluation implements.
//
// `Overlay` is deliberately small: join/build, point-to-point lookup
// (`route`), one-hop neighbourhood enumeration, churn hooks, and a
// capability descriptor. Dissemination (subscriber sets, tree building,
// interest functions) lives in `overlay::PubSubSystem` (system.hpp), which
// *composes over* any Overlay instead of being inherited into each system —
// adding a new overlay means implementing this interface only.
//
// `RingOverlay` is the shared base for overlays that route greedily on the
// RingSubstrate id space (SELECT, Symphony, Vitis, OMen, the random mesh,
// the socially-aware DHT). Bayeux (prefix routing), Kelips (affinity
// groups) and Kademlia (XOR buckets) implement Overlay directly.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "common/flat_set.hpp"
#include "graph/social_graph.hpp"
#include "overlay/overlay.hpp"
#include "overlay/tree.hpp"

namespace sel::overlay {

/// What an overlay can honestly answer. Callers branch on these instead of
/// probing for failure: a query outside the capability set returns
/// RouteStatus::kUnsupported, never a silent empty result.
struct Capabilities {
  /// route_avoiding() yields avoidance-aware paths (vs kUnsupported).
  bool route_avoiding = false;
  /// neighbors() is symmetric: b ∈ neighbors(a) ⇔ a ∈ neighbors(b)
  /// (links model TCP connections usable in both directions).
  bool symmetric_neighbors = false;
  /// build() iterates to convergence; build_iterations() is meaningful
  /// (Fig. 5 only plots such systems).
  bool iterative_build = false;
  /// maintenance_round() actively repairs the topology under churn
  /// (vs only tracking liveness).
  bool churn_maintenance = false;
  /// Dissemination should prefer subscriber-first trees over this
  /// overlay's links (SELECT Sec. III-E, OMen topic-connected overlays);
  /// otherwise trees merge per-subscriber routes.
  bool subscriber_first_tree = false;
};

/// The routing concept. Implementations own their topology construction;
/// the dissemination layer and every harness talk to this interface only.
class Overlay {
 public:
  virtual ~Overlay() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual const graph::SocialGraph& social() const = 0;
  [[nodiscard]] virtual Capabilities capabilities() const { return {}; }

  /// Constructs the overlay to convergence (join + topology iterations).
  virtual void build() = 0;

  /// Iterations the construction took; 0 for non-iterative systems.
  [[nodiscard]] virtual std::size_t build_iterations() const { return 0; }

  /// Social lookup: route a message from peer `from` to peer `to`
  /// (Fig. 2 measures the hop count of these). An offline `to` (other than
  /// `from` itself) fails at once with kNoRoute and path == {from}; callers
  /// need no liveness check of their own. route_avoiding() keeps the same
  /// contract.
  [[nodiscard]] virtual RouteResult route(PeerId from, PeerId to) const = 0;

  /// Route that must not traverse any peer in `avoid` (the reliability
  /// layer uses this to route around a relay its failure detector declared
  /// dead). Overlays without the capability answer kUnsupported — callers
  /// can then distinguish "no detour exists" from "cannot ask".
  [[nodiscard]] virtual RouteResult route_avoiding(
      PeerId /*from*/, PeerId /*to*/,
      const FlatSet<PeerId>& /*avoid*/) const {
    return RouteResult::unsupported();
  }

  /// One-hop neighbourhood of p, deduplicated, deterministic order.
  [[nodiscard]] virtual std::vector<PeerId> neighbors(PeerId p) const = 0;

  /// Visits every one-hop neighbour of p. Default materializes
  /// neighbors(p); ring overlays override with an allocation-free walk.
  virtual void for_each_neighbor(PeerId p,
                                 const std::function<void(PeerId)>& fn) const {
    for (const PeerId q : neighbors(p)) fn(q);
  }

  /// Churn hook: marks a peer online/offline. Systems with recovery react
  /// here (SELECT Sec. III-F, OMen shadow sets).
  virtual void set_peer_online(PeerId p, bool online) = 0;
  [[nodiscard]] virtual bool peer_online(PeerId p) const = 0;

  /// Runs one maintenance round under churn (recovery/mending). Default:
  /// nothing (capabilities().churn_maintenance is false then).
  virtual void maintenance_round() {}

  [[nodiscard]] virtual std::size_t num_peers() const {
    return social().num_nodes();
  }

  /// Overlays with a protocol-native dissemination scheme return the tree
  /// here (Bayeux builds rendezvous-root trees; there is no meaningful
  /// "generic" tree over its prefix links). nullopt → the dissemination
  /// layer composes a tree from route()/neighbors().
  [[nodiscard]] virtual std::optional<DisseminationTree> native_tree(
      PeerId /*publisher*/, const FlatSet<PeerId>& /*subscribers*/) const {
    return std::nullopt;
  }
};

/// Base for overlays whose routing runs on the shared RingSubstrate
/// (greedy id-space routing with optional lookahead).
class RingOverlay : public Overlay {
 public:
  RingOverlay(const graph::SocialGraph& g, RouteOptions route_options);

  [[nodiscard]] const graph::SocialGraph& social() const final {
    return *graph_;
  }
  [[nodiscard]] Capabilities capabilities() const override {
    Capabilities c;
    c.route_avoiding = true;
    c.symmetric_neighbors = true;
    return c;
  }
  [[nodiscard]] RouteResult route(PeerId from, PeerId to) const override;
  [[nodiscard]] RouteResult route_avoiding(
      PeerId from, PeerId to, const FlatSet<PeerId>& avoid) const override;
  [[nodiscard]] std::vector<PeerId> neighbors(PeerId p) const override;
  void for_each_neighbor(
      PeerId p, const std::function<void(PeerId)>& fn) const override;
  void set_peer_online(PeerId p, bool online) override;
  [[nodiscard]] bool peer_online(PeerId p) const override;
  [[nodiscard]] std::size_t num_peers() const override {
    return overlay_.num_peers();
  }

  /// The underlying id-space substrate (analysis, checks, serialization).
  [[nodiscard]] const RingSubstrate& overlay() const noexcept {
    return overlay_;
  }
  [[nodiscard]] RingSubstrate& overlay() noexcept { return overlay_; }

  [[nodiscard]] const RouteOptions& route_options() const noexcept {
    return route_options_;
  }

 protected:
  const graph::SocialGraph* graph_;
  RingSubstrate overlay_;
  RouteOptions route_options_;
};

}  // namespace sel::overlay

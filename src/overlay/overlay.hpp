// The structured P2P overlay substrate shared by SELECT and the baselines
// (paper Sec. II-A).
//
// Peers carry an identifier in [0,1); every joined peer keeps two
// short-range links (ring successor/predecessor) plus a bounded set of
// long-range links. Links model TCP connections and are therefore usable in
// both directions for routing and dissemination. Greedy routing picks the
// neighbour closest to the target in ID space; optional 1-step lookahead
// (Symphony [10]) lets a peer shortcut to a neighbour that is directly
// connected to the target.
//
// This class is the *simulation* representation: it holds the global state
// that, in a deployment, would be distributed across peers. Protocol code is
// written so each peer only reads what the real protocol could know.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/flat_set.hpp"
#include "net/id_space.hpp"
#include "obs/memory.hpp"

namespace sel::check::testing {
struct Corruptor;
}

namespace sel::overlay {

using PeerId = std::uint32_t;
constexpr PeerId kInvalidPeer = static_cast<PeerId>(-1);

class LookaheadCache;

struct RouteOptions {
  /// Abort after this many hops (0 = 4*log2(n) + 32, a generous TTL).
  std::size_t max_hops = 0;
  /// Use neighbour-of-neighbour lookahead (L_p, paper Table I).
  bool lookahead = true;
  /// Lookahead depth: 1 = classic Symphony (neighbour's neighbours), 2 =
  /// SELECT's richer L_p (friends' friends' connections, Sec. III-E) —
  /// finds guaranteed 3-hop paths before falling back to greedy steps.
  std::size_t lookahead_depth = 1;
  /// Skip offline peers while routing (churn experiments).
  bool require_online = true;
  /// Permit non-improving moves (with a visited set) instead of failing at
  /// local minima; keeps routing alive under churn.
  bool allow_detour = true;
  /// Peers that must not be used as intermediate hops (multipath
  /// dissemination routes a backup path disjoint from the primary). The
  /// source and destination are always allowed. Not owned. A FlatSet so the
  /// avoidance contract stays deterministic (sel_analyze.py rules).
  const FlatSet<PeerId>* avoid = nullptr;
  /// When set, lookahead consults these gossip-maintained L_p snapshots
  /// instead of live neighbour state (see overlay/lookahead.hpp); stale
  /// knowledge then behaves as it would in a deployment. Not owned.
  const LookaheadCache* lookahead_cache = nullptr;
};

/// Why a route attempt ended the way it did. `kUnsupported` distinguishes
/// "this overlay cannot answer that kind of query" (e.g. route_avoiding on
/// an overlay without the capability) from an honest routing failure, so
/// fallback and failure land in different fault.* counters.
enum class RouteStatus : std::uint8_t {
  kNoRoute = 0,    ///< attempted and failed (dead end, TTL, offline target)
  kOk = 1,         ///< path delivered
  kUnsupported = 2 ///< query kind not supported by this overlay
};

struct RouteResult {
  bool success = false;
  RouteStatus status = RouteStatus::kNoRoute;
  /// Peers visited, src first; includes dst when success.
  std::vector<PeerId> path;

  [[nodiscard]] std::size_t hops() const noexcept {
    return path.size() <= 1 ? 0 : path.size() - 1;
  }

  /// The canonical "this overlay does not answer that query" result.
  [[nodiscard]] static RouteResult unsupported() {
    RouteResult r;
    r.status = RouteStatus::kUnsupported;
    return r;
  }
};

class RingSubstrate {
 public:
  explicit RingSubstrate(std::size_t num_peers);

  [[nodiscard]] std::size_t num_peers() const noexcept { return peers_.size(); }
  [[nodiscard]] std::size_t joined_count() const noexcept { return joined_count_; }

  // -- membership -----------------------------------------------------------
  /// Marks the peer as part of the overlay with the given identifier.
  void join(PeerId p, net::OverlayId id);
  [[nodiscard]] bool joined(PeerId p) const { return peer(p).joined; }

  // -- identifiers ----------------------------------------------------------
  [[nodiscard]] net::OverlayId id(PeerId p) const { return peer(p).id; }
  /// Changes a peer's identifier (SELECT reassignment). Ring links become
  /// stale until rebuild_ring().
  void set_id(PeerId p, net::OverlayId id);

  // -- liveness -------------------------------------------------------------
  [[nodiscard]] bool online(PeerId p) const { return peer(p).online; }
  void set_online(PeerId p, bool online);

  // -- ring (short-range links) ----------------------------------------------
  /// Recomputes successor/predecessor over all joined peers, ordered by
  /// (id, peer). O(n log n); protocols call it once per round. With
  /// `online_only`, offline peers are skipped (ring repair under churn) and
  /// their own short links are invalidated.
  void rebuild_ring(bool online_only = false);
  [[nodiscard]] PeerId successor(PeerId p) const { return peer(p).succ; }
  [[nodiscard]] PeerId predecessor(PeerId p) const { return peer(p).pred; }

  // -- long-range links -------------------------------------------------------
  /// Adds a (bidirectional-TCP) long link from -> to. Returns false when the
  /// link already exists, is a self-loop, or either end has not joined.
  bool add_long_link(PeerId from, PeerId to);
  bool remove_long_link(PeerId from, PeerId to);
  /// Drops every long link incident to p (both directions).
  void clear_long_links(PeerId p);

  [[nodiscard]] std::span<const PeerId> out_links(PeerId p) const {
    return peer(p).out_links;
  }
  [[nodiscard]] std::span<const PeerId> in_links(PeerId p) const {
    return peer(p).in_links;
  }
  [[nodiscard]] std::size_t out_degree(PeerId p) const {
    return peer(p).out_links.size();
  }
  [[nodiscard]] std::size_t in_degree(PeerId p) const {
    return peer(p).in_links.size();
  }

  /// True when a long link exists in either direction.
  [[nodiscard]] bool linked(PeerId a, PeerId b) const;

  /// True when b is reachable from a in one hop (ring or long link).
  [[nodiscard]] bool neighbors_of_contains(PeerId a, PeerId b) const;

  /// Invokes fn for every one-hop neighbour of p: succ, pred, out- and
  /// in-links (deduplicated).
  void for_each_neighbor(PeerId p,
                         const std::function<void(PeerId)>& fn) const;

  /// Materialized neighbour list (deduplicated, deterministic order).
  [[nodiscard]] std::vector<PeerId> neighbor_list(PeerId p) const;

  // -- routing ----------------------------------------------------------------
  /// Greedy route from src to dst. See RouteOptions.
  [[nodiscard]] RouteResult greedy_route(PeerId src, PeerId dst,
                                         const RouteOptions& opts = {}) const;

  /// Average out-degree over joined peers (long links only).
  [[nodiscard]] double average_long_degree() const;

 private:
  // Test backdoor: check_invariants_test seeds violations the public API
  // refuses to create (see check/corrupt.hpp).
  friend struct ::sel::check::testing::Corruptor;

  /// Per-peer link vectors are attributed to `mem.overlay`
  /// (obs/memory.hpp): with bounded long-link budgets this IS the overlay's
  /// per-node state cost, the quantity ROADMAP item 1 budgets per peer.
  using LinkVector = obs::AccountedVector<PeerId, obs::Subsystem::kOverlay>;

  struct Peer {
    net::OverlayId id;
    bool joined = false;
    bool online = true;
    PeerId succ = kInvalidPeer;
    PeerId pred = kInvalidPeer;
    LinkVector out_links;
    LinkVector in_links;
  };

  [[nodiscard]] const Peer& peer(PeerId p) const {
    SEL_EXPECTS(p < peers_.size());
    return peers_[p];
  }
  [[nodiscard]] Peer& peer(PeerId p) {
    SEL_EXPECTS(p < peers_.size());
    return peers_[p];
  }

  obs::AccountedVector<Peer, obs::Subsystem::kOverlay> peers_;
  std::size_t joined_count_ = 0;
};

}  // namespace sel::overlay

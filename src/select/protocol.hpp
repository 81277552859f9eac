// The SELECT system (paper Sec. III).
//
// Pipeline:
//   1. Projection (Alg. 1): peers join per the growth schedule; invited
//      peers are placed next to their inviter in the ID space, independent
//      subscribers get a uniform hash id.
//   2. Gossip peer sampling (Algs. 3-4): every round each peer exchanges
//      its friend set and routing table with one random social friend,
//      learning social strengths and friendship bitmaps incrementally.
//   3. Identifier reassignment (Alg. 2): move to the ring midpoint of the
//      two strongest known ties (damped).
//   4. Link reassignment (Algs. 5-6): index friendship bitmaps into K LSH
//      buckets, keep one long link per bucket, picked for social coverage
//      and bandwidth; incoming links are capped at K with bandwidth-based
//      admission.
//   5. Recovery (Sec. III-F): CMA availability decides whether a dead link
//      is kept (transient) or replaced with a same-LSH-bucket peer.
//
// The pub/sub layer (Sec. III-E) lives in overlay::PubSubSystem, which
// composes over this overlay: direct links and lookahead deliver to friends
// in 1-2 hops, greedy ring routing covers the rest, and the
// subscriber_first_tree capability selects SELECT's dissemination style.
#pragma once

#include <optional>
#include <vector>

#include "common/bitset.hpp"
#include "common/rng.hpp"
#include "graph/tie_strength.hpp"
#include "lsh/lsh.hpp"
#include "net/network_model.hpp"
#include "overlay/lookahead.hpp"
#include "overlay/routing.hpp"
#include "select/cma.hpp"
#include "select/params.hpp"
#include "sim/growth.hpp"

namespace sel::core {

class SelectSystem final : public overlay::RingOverlay {
 public:
  /// `net` provides per-peer bandwidth (picker, Alg. 6); when null an
  /// internal model seeded from `seed` is created.
  SelectSystem(const graph::SocialGraph& g, SelectParams params,
               std::uint64_t seed, const net::NetworkModel* net = nullptr);

  [[nodiscard]] std::string_view name() const override {
    // The Kourtellis centrality-weighted variant is a distinct system in
    // the comparison matrix.
    return params_.centrality_weight > 0.0 ? "select_centrality" : "select";
  }

  [[nodiscard]] overlay::Capabilities capabilities() const override {
    overlay::Capabilities c = RingOverlay::capabilities();
    c.subscriber_first_tree = true;  // Sec. III-E dissemination
    return c;
  }

  /// Joins every user per the growth model, then runs topology rounds to
  /// convergence.
  void build() override;

  /// Join phase only (projection + initial friend links), no gossip rounds.
  /// Exposed for the convergence harness and tests.
  void join_all();

  /// One gossip round over all joined peers; returns true when the round
  /// was quiet (counts toward convergence).
  bool run_round();

  /// Rounds run by the last build()/run-to-convergence sequence.
  [[nodiscard]] std::size_t build_iterations() const override {
    return rounds_run_;
  }

  /// Runs rounds until converged or params.max_rounds; returns rounds run.
  std::size_t run_to_convergence();

  [[nodiscard]] bool converged() const noexcept {
    return quiet_streak_ >= params_.stable_rounds;
  }

  // -- churn ------------------------------------------------------------------
  void set_peer_online(overlay::PeerId p, bool online) override;

  /// Recovery round (Sec. III-F): samples availability into each CMA,
  /// repairs the ring, and replaces links to low-CMA offline peers with
  /// same-bucket alternatives.
  void maintenance_round() override;

  /// Direct availability evidence from the message plane: an acked transfer
  /// counts as an online sample for the receiving peer, a timed-out one as
  /// an offline sample — the same CMA that maintenance_round() feeds by
  /// polling (Sec. III-F). Wire this to
  /// NotificationEngine::set_availability_observer.
  void observe_availability(overlay::PeerId p, bool responsive) {
    cma_[p].update(responsive);
  }

  // -- introspection ----------------------------------------------------------
  [[nodiscard]] const SelectParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t k() const noexcept { return k_; }
  [[nodiscard]] double cma_of(overlay::PeerId p) const {
    return cma_[p].value();
  }
  /// Social strength of `friend_peer` as known to p via gossip so far
  /// (-1 when not yet learned).
  [[nodiscard]] double known_strength(overlay::PeerId p,
                                      overlay::PeerId friend_peer) const;
  /// Identifier movement (sum of ring distances) during the last round.
  [[nodiscard]] double last_round_movement() const noexcept {
    return last_movement_;
  }
  [[nodiscard]] std::size_t last_round_link_changes() const noexcept {
    return last_link_changes_;
  }
  /// True when nothing relink(p) reads moved since its last run, so the
  /// next create_links(p) skips it: p's bitmaps, and the link_version of p
  /// and of every friend (which covers their link tables and joined flags).
  /// relinked_at is read before that run's own link changes, so a run that
  /// changed a link is never current.
  [[nodiscard]] bool links_current(overlay::PeerId p) const;
  /// The gossip-maintained L_p snapshots used for lookahead routing.
  [[nodiscard]] const overlay::LookaheadCache& lookahead() const noexcept {
    return lookahead_;
  }
  /// Hit/miss/merge accounting of the tie-strength cache the gossip loop
  /// queries through (Alg. 4 line 3). Warm-cache merge reduction is an
  /// acceptance metric — see graph_tie_strength_test.
  [[nodiscard]] const graph::TieStrengthIndex::Stats& tie_stats()
      const noexcept {
    return tie_index_.stats();
  }

 private:
  struct FriendInfo {
    double strength = -1.0;      ///< known via gossip; -1 = unknown
    DynamicBitset bitmap;        ///< R_friend ∩ C_p over C_p's index space
    /// The friend's link_version the bitmap was built from; 0 = never.
    std::uint64_t links_seen = 0;
  };

  struct PeerState {
    std::vector<FriendInfo> friends;           ///< aligned with g.neighbors(p)
    std::optional<lsh::LshIndex> index;        ///< persistent K-bucket index
    Rng rng;
    /// Version clock read at the start of the last relink(p).
    std::uint64_t relinked_at = 0;
    /// A friend bitmap changed since then (true until the first relink).
    bool bitmaps_changed = true;
  };

  /// Position of `friend_peer` in p's sorted neighbour list.
  [[nodiscard]] std::size_t friend_index(overlay::PeerId p,
                                         overlay::PeerId friend_peer) const;

  /// Gossip exchange between p and its friend u (Algs. 3-4): both sides
  /// learn strength + bitmap of the other.
  void exchange(overlay::PeerId p, overlay::PeerId u);

  /// Alg. 2 (damped): returns the ring distance moved.
  double evaluate_position(overlay::PeerId p);

  /// Algs. 5-6: rebuilds p's LSH index and reassigns long links unless
  /// links_current(p). Returns the number of link changes made.
  std::size_t create_links(overlay::PeerId p);

  /// The LSH path of create_links, always recomputed.
  std::size_t relink(overlay::PeerId p);

  /// Alg. 6 candidate score: social coverage, plus degree-centrality bias
  /// when params.centrality_weight > 0 (Kourtellis variant).
  [[nodiscard]] double picker_score(const lsh::LshIndex::Entry& e) const;

  /// Alg. 6 picker over bucket candidates (already filtered to usable).
  [[nodiscard]] overlay::PeerId pick_from_bucket(
      const std::vector<lsh::LshIndex::Entry>& bucket) const;

  /// Full picker ordering of a bucket (best first, Alg. 6 semantics).
  [[nodiscard]] std::vector<overlay::PeerId> rank_bucket(
      const std::vector<lsh::LshIndex::Entry>& bucket) const;

  /// Connects p -> u honoring u's K incoming cap with bandwidth admission.
  /// Returns true when the link was established.
  bool try_connect(overlay::PeerId p, overlay::PeerId u);

  /// Refreshes p's stored bitmap for its friend at position `u_idx` from
  /// that friend's current links, unless its link_version is unchanged.
  void refresh_bitmap(overlay::PeerId p, std::size_t u_idx);

  SelectParams params_;
  std::uint64_t seed_;
  std::size_t k_ = 0;
  std::optional<net::NetworkModel> owned_net_;
  const net::NetworkModel* net_ = nullptr;

  std::vector<PeerState> state_;
  std::vector<Cma> cma_;
  /// Memoized |N(u) ∩ N(v)| for friend pairs; the graph is immutable so
  /// cached counts never go stale. mutable-free: exchange() is non-const.
  graph::TieStrengthIndex tie_index_;
  overlay::LookaheadCache lookahead_;
  std::vector<sim::JoinEvent> schedule_;
  DynamicBitset bitmap_scratch_;  ///< refresh_bitmap's recompute target

  std::size_t rounds_run_ = 0;
  std::size_t quiet_streak_ = 0;
  /// Monotonic gossip-round index for obs round telemetry (never resets, so
  /// repeated run_to_convergence() calls stay distinguishable).
  std::size_t telemetry_round_ = 0;
  /// Same, for maintenance rounds (their time-series label is separate).
  std::size_t maintenance_rounds_ = 0;
  double last_movement_ = 0.0;
  std::size_t last_link_changes_ = 0;
};

}  // namespace sel::core

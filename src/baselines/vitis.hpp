// Vitis baseline (Rahimian et al. [5]): gossip-based hybrid pub/sub overlay.
//
// Peers sit on a ring with *immutable* uniform identifiers and run a
// T-Man-style gossip: every round each peer exchanges its candidate view
// with a random view member and keeps the peers with the most similar
// subscriptions (here: the most common social friends) as cluster links,
// plus harmonic long links for global connectivity. Because the overlay is
// bootstrapped from random neighbours, similar peers must first be
// *discovered* through gossip — which is why Vitis needs substantially more
// iterations to converge than SELECT (Fig. 5). And because similarity
// ranking favours high-degree users, hubs accumulate incoming links and
// forwarding load (Fig. 4).
#pragma once

#include <cstdint>
#include <vector>

#include "overlay/routing.hpp"

namespace sel::baselines {

struct VitisParams {
  /// Cluster links per peer; 0 = log2(N).
  std::size_t k_links = 0;
  /// Random-view size exchanged during gossip.
  std::size_t view_size = 12;
  /// Consecutive quiet rounds to declare convergence.
  std::size_t stable_rounds = 2;
  std::size_t max_rounds = 256;
};

class VitisSystem final : public overlay::RingOverlay {
 public:
  VitisSystem(const graph::SocialGraph& g, VitisParams params,
              std::uint64_t seed);

  [[nodiscard]] std::string_view name() const override { return "vitis"; }
  void build() override;
  [[nodiscard]] std::size_t build_iterations() const override {
    return rounds_run_;
  }

  /// One gossip round; returns the number of cluster-link changes.
  std::size_t run_round();

 private:
  /// Subscription similarity: common social friends (peers subscribed to
  /// the same publishers collide on common neighbourhoods).
  [[nodiscard]] std::size_t similarity(overlay::PeerId a,
                                       overlay::PeerId b) const {
    return graph_->common_neighbors(a, b) +
           (graph_->has_edge(a, b) ? 1 : 0);
  }

  /// Re-ranks p's cluster links from its current candidate view.
  std::size_t reselect_links(overlay::PeerId p);

  VitisParams params_;
  std::uint64_t seed_;
  std::size_t k_ = 0;
  std::size_t rounds_run_ = 0;
  std::vector<std::vector<overlay::PeerId>> view_;  ///< gossip candidate views
  std::vector<std::vector<overlay::PeerId>> base_links_;  ///< immutable substrate
  std::vector<Rng> rng_;
};

}  // namespace sel::baselines

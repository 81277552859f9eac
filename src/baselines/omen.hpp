// OMen baseline (Chen, Vitenberg, Jacobsen [6]): overlay mending for
// topic-based pub/sub under churn.
//
// OMen maintains a Topic-Connected Overlay (TCO): for every topic, the
// subscribers of that topic should form a connected subgraph using only
// edges between subscribers, approximated with the Greedy-Merge algorithm
// of Chockler et al. [22] / the divide-and-conquer variant [24]: repeatedly
// add the edge that makes the most still-disconnected topics connected,
// under a per-peer degree budget. In the OSN workload a topic is a
// publisher's feed and its subscriber set is the publisher's friend
// neighbourhood, so edge utility ≈ common social neighbourhoods — which
// concentrates links on high-degree users (the Fig. 4 hotspot behaviour).
//
// Construction is iterative (each round every still-disconnected topic gets
// to add at most one mending edge), giving the Fig. 5 iteration counts.
// Churn resilience comes from *shadow sets*: per peer, backup same-topic
// peers that replace failed neighbours during maintenance_round().
#pragma once

#include <cstdint>
#include <vector>

#include "overlay/routing.hpp"

namespace sel::baselines {

struct OmenParams {
  /// Per-peer degree budget for TCO edges; 0 = 2 * log2(N).
  std::size_t degree_budget = 0;
  /// Candidate sample size when scoring mending edges.
  std::size_t candidate_sample = 16;
  /// Shadow-set size per peer.
  std::size_t shadow_size = 4;
  std::size_t max_rounds = 512;
};

class OmenSystem final : public overlay::RingOverlay {
 public:
  OmenSystem(const graph::SocialGraph& g, OmenParams params,
             std::uint64_t seed);

  [[nodiscard]] std::string_view name() const override { return "omen"; }
  void build() override;
  [[nodiscard]] std::size_t build_iterations() const override {
    return rounds_run_;
  }

  /// OMen dissemination: within-topic flooding over the TCO (subscriber-to-
  /// subscriber edges), greedy routing for topic fragments the degree
  /// budget left unconnected — exactly the subscriber-first composition.
  [[nodiscard]] overlay::Capabilities capabilities() const override {
    overlay::Capabilities c = RingOverlay::capabilities();
    c.subscriber_first_tree = true;
    return c;
  }

  /// Shadow-set mending: replaces offline neighbours with shadow peers.
  void maintenance_round() override;

  /// Fraction of topics whose subscriber set is TCO-connected (diagnostic).
  [[nodiscard]] double topic_connectivity() const;

 private:
  /// Union-find over the members of one topic.
  struct TopicState {
    overlay::PeerId publisher;
    std::vector<overlay::PeerId> members;  ///< sorted: publisher + friends
    std::vector<std::uint32_t> parent;     ///< union-find by member index
    std::size_t components;

    [[nodiscard]] std::size_t find(std::size_t i);
    /// Returns true when a merge happened.
    bool unite(std::size_t i, std::size_t j);
    [[nodiscard]] std::size_t index_of(overlay::PeerId p) const;
  };

  /// One GM round; returns edges added.
  std::size_t run_round();

  /// Registers an established overlay edge with every topic containing both
  /// endpoints.
  void apply_edge_to_topics(overlay::PeerId u, overlay::PeerId v);

  [[nodiscard]] bool budget_ok(overlay::PeerId p) const;

  OmenParams params_;
  std::uint64_t seed_;
  std::size_t budget_ = 0;
  std::size_t rounds_run_ = 0;
  std::vector<TopicState> topics_;
  std::vector<std::vector<overlay::PeerId>> shadows_;
  Rng rng_;
};

}  // namespace sel::baselines

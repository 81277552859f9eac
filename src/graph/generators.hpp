// Synthetic social-graph generators.
//
// The paper evaluates on four SNAP datasets (Facebook, Twitter, Slashdot,
// Google Plus). Those files are not available offline, so we synthesize
// graphs with matching structure: heavy-tailed degree distributions and high
// clustering, via the Holme–Kim model (Barabási–Albert preferential
// attachment with triad-closure steps; triad_p = 0 is plain BA). The
// structure ablation's null model rewires a graph while keeping its degrees.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "graph/social_graph.hpp"

namespace sel::graph {

/// Holme–Kim powerlaw-cluster graph: BA attachment where each of the m links
/// is followed, with probability triad_p, by a triad-closure link to a random
/// neighbour of the just-linked node. Produces power-law degrees AND high
/// clustering — the structure the paper's datasets share.
[[nodiscard]] SocialGraph holme_kim(std::size_t n, std::size_t m,
                                    double triad_p, std::uint64_t seed);

/// Degree-preserving randomization (configuration-model null model): applies
/// `swaps_per_edge * |E|` double-edge swaps, destroying clustering and
/// community structure while keeping every node's degree exactly. Used by
/// the structure-vs-degree ablation: if SELECT's wins survived rewiring they
/// would come from the degree sequence, not the social structure.
[[nodiscard]] SocialGraph degree_preserving_rewire(const SocialGraph& g,
                                                   double swaps_per_edge,
                                                   std::uint64_t seed);

}  // namespace sel::graph

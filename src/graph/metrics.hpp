// Structural graph metrics used to validate the synthetic datasets against
// Table II.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "graph/social_graph.hpp"

namespace sel::graph {

/// Average local clustering coefficient, estimated over `samples` random
/// nodes (exact when samples >= num_nodes). Nodes with degree < 2 count as 0.
[[nodiscard]] double clustering_coefficient(const SocialGraph& g,
                                            std::size_t samples,
                                            std::uint64_t seed);

/// Number of connected components (BFS).
[[nodiscard]] std::size_t connected_components(const SocialGraph& g);

/// Fits the power-law exponent alpha of the degree distribution via the
/// discrete MLE (Clauset et al.) over degrees >= d_min. Returns 0 when there
/// are fewer than 10 qualifying nodes.
[[nodiscard]] double powerlaw_alpha(const SocialGraph& g, std::size_t d_min = 5);

}  // namespace sel::graph

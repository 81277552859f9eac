// RingSubstrate introspection / analysis utilities for the SELECT overlay.
// They quantify what the protocol actually built: friend coverage,
// identifier clusters, and how well ring regions align with social
// communities. The tests use them as the oracle for the paper's structural
// claims (select_analysis_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/social_graph.hpp"
#include "graph/tie_strength.hpp"
#include "overlay/overlay.hpp"

namespace sel::core {

struct CoverageReport {
  double one_hop_fraction = 0.0;    ///< friends reachable in 1 hop
  double two_hop_fraction = 0.0;    ///< friends reachable in exactly 2 hops
  double beyond_fraction = 0.0;     ///< the rest
  double avg_hops = 0.0;            ///< over delivered lookups
};

/// Routes every (sampled) user->friend pair and buckets by hop count —
/// the paper's "subscribers are 1 or 2 hops away" claim, quantified.
[[nodiscard]] CoverageReport friend_coverage(
    const overlay::RingSubstrate& ov, const graph::SocialGraph& g,
    std::size_t sample_pairs, std::uint64_t seed,
    const overlay::RouteOptions& opts = {});

struct IdCluster {
  double lo = 0.0;       ///< cluster start (inclusive) on the ring
  double hi = 0.0;       ///< cluster end (exclusive, may wrap past 1)
  std::size_t size = 0;  ///< peers inside
};

/// Segments the identifier ring into clusters separated by gaps larger than
/// `gap_threshold`. SELECT's reassignment should produce a handful of dense
/// clusters (social regions) — uniform ids produce ~one giant cluster at
/// small thresholds or n clusters at large ones.
[[nodiscard]] std::vector<IdCluster> id_clusters(const overlay::RingSubstrate& ov,
                                                 double gap_threshold);

/// Fraction of ring-adjacent peer pairs (successor pairs) that are social
/// friends or share at least `min_common` common friends — how "social" the
/// ring order became. On dense graphs use min_common >= 3: a single shared
/// friend is common even between random peers.
[[nodiscard]] double ring_social_coherence(const overlay::RingSubstrate& ov,
                                           graph::TieStrengthIndex& tie,
                                           std::size_t min_common = 3);

/// Convenience overload: builds a throwaway tie-strength index. Prefer the
/// index overload when calling repeatedly (sweeps, per-round sampling) so
/// the common-neighbour merges amortize.
[[nodiscard]] double ring_social_coherence(const overlay::RingSubstrate& ov,
                                           const graph::SocialGraph& g,
                                           std::size_t min_common = 3);

/// Mean social strength (Eq. 2) of established long links vs the mean over
/// uniformly random peer pairs. Much greater than 1 when links are social;
/// note the LSH picker optimizes neighbourhood *coverage*, not strength, so
/// the lift against random *friend* pairs can legitimately be below 1.
[[nodiscard]] double link_strength_lift(const overlay::RingSubstrate& ov,
                                        graph::TieStrengthIndex& tie,
                                        std::uint64_t seed);

/// Convenience overload, as for ring_social_coherence.
[[nodiscard]] double link_strength_lift(const overlay::RingSubstrate& ov,
                                        const graph::SocialGraph& g,
                                        std::uint64_t seed);

}  // namespace sel::core

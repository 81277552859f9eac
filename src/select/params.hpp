// Tunable parameters of the SELECT protocol (paper Sec. III).
#pragma once

#include <cstddef>
#include <cstdint>

namespace sel::core {

struct SelectParams {
  /// Long-range link budget K (outgoing) and incoming-link cap. 0 means
  /// "use log2(N)", the paper's choice after the connection sweep (Sec IV-C).
  std::size_t k_links = 0;

  /// Bits sampled per LSH hash (bit-sampling family).
  std::size_t lsh_bits_per_hash = 12;

  /// Fraction of the way a peer moves toward its evaluatePosition() target
  /// per round. 1.0 reproduces Alg. 2 literally; < 1 damps oscillation
  /// between mutually attracted peers.
  double id_damping = 0.8;

  /// Gossip exchanges (Algs. 3-4) each peer initiates per iteration. The
  /// paper gossips every ~10 seconds; an overlay-construction iteration
  /// spans several gossip periods.
  std::size_t exchanges_per_round = 3;

  /// A peer stops relocating once it is within this ring distance of its
  /// strongest social tie. Without a settle radius the repeated midpoint
  /// moves are a contraction mapping and the whole network collapses onto a
  /// single identifier; with it, communities condense into distinct regions
  /// while the ring stays covered (the Fig. 8 shape).
  double settle_radius = 0.01;

  /// The overlay is converged after this many consecutive quiet rounds
  /// (no link changes, no significant id movement).
  std::size_t stable_rounds = 2;

  /// Hard cap on topology-construction rounds.
  std::size_t max_rounds = 128;

  /// Keep an unresponsive link when the peer's CMA availability is at least
  /// this value (Sec. III-F: likely a transient failure); replace otherwise.
  double cma_keep_threshold = 0.5;

  /// Invitation-based projection (Alg. 1): invited peers are placed in
  /// their inviter's ring gap. Disabled (ablation), every peer gets a
  /// uniform-hash identifier regardless of how it joined.
  bool enable_invite_projection = true;

  /// Disable identifier reassignment (ablation: projection only).
  bool enable_id_reassignment = true;

  /// Use random friend links instead of LSH bucket selection (ablation).
  bool enable_lsh_selection = true;

  /// Disable the CMA-driven recovery (ablation: always replace dead links).
  bool enable_cma_recovery = true;

  /// Kourtellis-style centrality-weighted link selection: candidate scores
  /// in the Alg. 6 picker gain `centrality_weight * degree(candidate)`,
  /// steering long links toward hub peers. 0 (the default) reproduces the
  /// paper's coverage-only picker; > 0 selects the "select_centrality"
  /// variant in the comparison matrix.
  double centrality_weight = 0.0;
};

}  // namespace sel::core

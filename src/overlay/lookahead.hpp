// Explicit lookahead sets L_p (paper Table I / Sec. III-E).
//
// In a deployment a peer does not see its neighbours' routing tables live;
// it holds *snapshots* exchanged through gossip ("a set of connections that
// the peer v ∈ R_p maintains"). This cache materializes those snapshots:
// routing with RouteOptions::lookahead_cache consults the snapshot instead
// of the ground truth, so stale knowledge behaves exactly as it would in a
// real network — a shortcut through a dropped link costs extra hops rather
// than silently working.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "check/overlay_checks.hpp"
#include "overlay/overlay.hpp"

namespace sel::overlay {

class LookaheadCache {
 public:
  explicit LookaheadCache(const RingSubstrate& ov)
      : ov_(&ov), snapshots_(ov.num_peers()), versions_(ov.num_peers(), 0) {}

  /// Refreshes the snapshot of `p`'s neighbour set (ring + long links). The
  /// recompute is skipped while p's neighbor_version equals the one the
  /// snapshot was taken at: the set cannot have changed since.
  void refresh(PeerId p) {
    const std::uint64_t version = ov_->neighbor_version(p);
    if (versions_[p] == version) {
      if (check::enabled(check::Level::kFull)) {
        check::enforce(check::validate_gated_skip(
            "overlay.lookahead.gated_skip", p, stale_entries(p)));
      }
      return;
    }
    auto list = ov_->neighbor_list(p);
    std::sort(list.begin(), list.end());
    snapshots_[p] = std::move(list);
    versions_[p] = version;
  }

  void refresh_all() {
    for (PeerId p = 0; p < snapshots_.size(); ++p) refresh(p);
  }

  [[nodiscard]] bool has_snapshot(PeerId p) const { return versions_[p] != 0; }

  /// The snapshotted neighbour list (sorted); empty when unknown.
  [[nodiscard]] std::span<const PeerId> snapshot(PeerId p) const {
    static const std::vector<PeerId> kEmpty;
    return has_snapshot(p) ? std::span<const PeerId>(snapshots_[p])
                           : std::span<const PeerId>(kEmpty);
  }

  /// L_p query: does the *snapshot* of `via` contain `target`?
  /// Unknown peers answer false (no lookahead claim without knowledge).
  [[nodiscard]] bool cached_contains(PeerId via, PeerId target) const {
    if (!has_snapshot(via)) return false;
    const auto& snap = snapshots_[via];
    return std::binary_search(snap.begin(), snap.end(), target);
  }

  /// Entries in the snapshot that no longer match the live neighbour set —
  /// a staleness measure for tests and diagnostics.
  [[nodiscard]] std::size_t stale_entries(PeerId p) const {
    if (!has_snapshot(p)) return 0;
    auto live = ov_->neighbor_list(p);
    std::sort(live.begin(), live.end());
    const auto& snap = snapshots_[p];
    std::size_t divergent = 0;
    // Symmetric difference size via merge walk.
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < snap.size() || j < live.size()) {
      if (j >= live.size() || (i < snap.size() && snap[i] < live[j])) {
        ++divergent;
        ++i;
      } else if (i >= snap.size() || live[j] < snap[i]) {
        ++divergent;
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
    return divergent;
  }

  [[nodiscard]] std::size_t num_snapshots() const {
    return static_cast<std::size_t>(std::count_if(
        versions_.begin(), versions_.end(),
        [](std::uint64_t v) { return v != 0; }));
  }

 private:
  const RingSubstrate* ov_;
  std::vector<std::vector<PeerId>> snapshots_;
  /// neighbor_version each snapshot was taken at; 0 = no snapshot.
  std::vector<std::uint64_t> versions_;
};

}  // namespace sel::overlay

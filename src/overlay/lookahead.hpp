// Explicit lookahead sets L_p (paper Table I / Sec. III-E).
//
// In a deployment a peer does not see its neighbours' routing tables live;
// it holds *snapshots* exchanged through gossip ("a set of connections that
// the peer v ∈ R_p maintains"). This cache materializes those snapshots:
// routing with RouteOptions::lookahead_cache consults the snapshot instead
// of the ground truth, so stale knowledge behaves exactly as it would in a
// real network — a shortcut through a dropped link costs extra hops rather
// than silently working.
//
// Routing asks the snapshots two questions per neighbour w of the current
// hop: does w's snapshot hold dst (depth 1), and does the snapshot of one of
// w's usable snapshot entries hold dst (depth 2)? A reverse index answers
// both without scanning: holders(t) lists the peers whose snapshot holds t.
// A route stamps holders(dst) once, so depth 1 is one stamp read; depth 2
// asks whether w holds some usable x in holders(dst), i.e. whether w lies
// in the union of holders(x) over those x, which the route stamps on its
// first depth-2 question. Both answers equal the snapshot scans by
// construction: w ∈ holders(t) exactly when t is in w's snapshot.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "check/overlay_checks.hpp"
#include "obs/memory.hpp"
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
    index_stale_ = true;
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

  // -- routing queries (reverse index) ----------------------------------------
  // One route at a time: begin_route() starts the per-route stamps that the
  // two queries below read. The index and stamps are scratch behind a const
  // interface; routes run on one thread.

  /// Starts a route towards `dst`: rebuilds the reverse index when a
  /// snapshot changed since the last route, then stamps holders(dst).
  void begin_route(PeerId dst) const {
    if (index_stale_) rebuild_index();
    if (++route_ == 0) {  // stamp wrap: forget every earlier route
      std::fill(holder_stamp_.begin(), holder_stamp_.end(), 0);
      std::fill(union_stamp_.begin(), union_stamp_.end(), 0);
      route_ = 1;
    }
    target_ = dst;
    union_ready_ = false;
    for (const PeerId h : holders(dst)) holder_stamp_[h] = route_;
  }

  /// cached_contains(w, dst) for the route's dst.
  [[nodiscard]] bool snapshot_holds_target(PeerId w) const {
    return holder_stamp_[w] == route_;
  }

  /// True when w's snapshot holds some x with usable(x) whose snapshot holds
  /// the route's dst. `usable` must not change within a route; the union is
  /// stamped on the route's first call.
  template <class Usable>
  [[nodiscard]] bool target_two_snapshots_away(PeerId w,
                                               const Usable& usable) const {
    if (!union_ready_) {
      union_ready_ = true;
      for (const PeerId x : holders(target_)) {
        if (!usable(x)) continue;
        for (const PeerId y : holders(x)) union_stamp_[y] = route_;
      }
    }
    return union_stamp_[w] == route_;
  }

 private:
  using Index = obs::AccountedVector<std::uint32_t, obs::Subsystem::kOverlay>;

  /// Peers whose snapshot holds `t`, ascending (index current).
  [[nodiscard]] std::span<const PeerId> holders(PeerId t) const {
    return {holders_.data() + holder_begin_[t],
            holders_.data() + holder_begin_[t + 1]};
  }

  /// Counting sort of every (holder, entry) pair by entry. Filling from the
  /// last holder down leaves each holders(t) ascending and holder_begin_[t]
  /// at its start.
  void rebuild_index() const {
    const std::size_t n = snapshots_.size();
    holder_begin_.assign(n + 1, 0);
    for (PeerId p = 0; p < n; ++p) {
      if (!has_snapshot(p)) continue;
      for (const PeerId t : snapshots_[p]) ++holder_begin_[t];
    }
    std::partial_sum(holder_begin_.begin(), holder_begin_.end(),
                     holder_begin_.begin());
    holders_.resize(holder_begin_[n]);
    for (PeerId p = static_cast<PeerId>(n); p-- > 0;) {
      if (!has_snapshot(p)) continue;
      for (const PeerId t : snapshots_[p]) holders_[--holder_begin_[t]] = p;
    }
    holder_stamp_.resize(n, 0);
    union_stamp_.resize(n, 0);
    index_stale_ = false;
  }

  const RingSubstrate* ov_;
  std::vector<std::vector<PeerId>> snapshots_;
  /// neighbor_version each snapshot was taken at; 0 = no snapshot.
  std::vector<std::uint64_t> versions_;

  /// Reverse index, rebuilt on the first route after a snapshot changed.
  mutable bool index_stale_ = true;
  mutable Index holder_begin_;  ///< CSR offsets into holders_, n + 1
  mutable Index holders_;
  /// Per-route stamps: holder_stamp_[w] == route_ iff w ∈ holders(dst);
  /// union_stamp_[w] == route_ iff w is in the depth-2 union.
  mutable Index holder_stamp_;
  mutable Index union_stamp_;
  mutable std::uint32_t route_ = 0;
  mutable PeerId target_ = kInvalidPeer;
  mutable bool union_ready_ = false;
};

}  // namespace sel::overlay

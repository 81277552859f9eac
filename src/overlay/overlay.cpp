#include "overlay/overlay.hpp"

#include "overlay/lookahead.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "check/overlay_checks.hpp"

namespace sel::overlay {

RingSubstrate::RingSubstrate(std::size_t num_peers) : peers_(num_peers) {
  // Feed the mem.bytes_per_peer gauge (obs/memory.hpp). Last overlay wins,
  // which is what size sweeps want.
  obs::set_peer_count(num_peers);
}

void RingSubstrate::join(PeerId p, net::OverlayId id) {
  auto& pr = peer(p);
  if (!pr.joined) {
    pr.joined = true;
    ++joined_count_;
  }
  pr.id = id;
  pr.online = true;
  bump_links(pr);
}

void RingSubstrate::set_id(PeerId p, net::OverlayId id) {
  SEL_EXPECTS(peer(p).joined);
  peer(p).id = id;
}

void RingSubstrate::set_online(PeerId p, bool online) {
  peer(p).online = online;
}

void RingSubstrate::rebuild_ring(bool online_only) {
  std::vector<PeerId> order;
  order.reserve(joined_count_);
  auto set_ring = [this](Peer& pr, PeerId succ, PeerId pred) {
    if (pr.succ == succ && pr.pred == pred) return;
    pr.succ = succ;
    pr.pred = pred;
    bump_neighbors(pr);
  };
  for (PeerId p = 0; p < peers_.size(); ++p) {
    if (!peers_[p].joined) continue;
    if (online_only && !peers_[p].online) {
      set_ring(peers_[p], kInvalidPeer, kInvalidPeer);
      continue;
    }
    order.push_back(p);
  }
  std::sort(order.begin(), order.end(), [this](PeerId a, PeerId b) {
    if (peers_[a].id != peers_[b].id) return peers_[a].id < peers_[b].id;
    return a < b;
  });
  const std::size_t n = order.size();
  for (std::size_t i = 0; i < n; ++i) {
    auto& pr = peers_[order[i]];
    if (n == 1) {
      set_ring(pr, kInvalidPeer, kInvalidPeer);
    } else {
      set_ring(pr, order[(i + 1) % n], order[(i + n - 1) % n]);
    }
  }
  if (check::enabled()) {
    check::enforce(check::enabled(check::Level::kFull)
                       ? check::validate_ring(*this, online_only)
                       : check::validate_ring_sample(*this, online_only));
  }
}

bool RingSubstrate::add_long_link(PeerId from, PeerId to) {
  if (from == to) return false;
  auto& f = peer(from);
  auto& t = peer(to);
  if (!f.joined || !t.joined) return false;
  if (std::find(f.out_links.begin(), f.out_links.end(), to) !=
      f.out_links.end()) {
    return false;
  }
  f.out_links.push_back(to);
  t.in_links.push_back(from);
  bump_links(f);
  bump_links(t);
  if (check::enabled(check::Level::kFull)) {
    check::enforce(check::validate_peer_links(*this, from));
    check::enforce(check::validate_peer_links(*this, to));
  }
  return true;
}

bool RingSubstrate::remove_long_link(PeerId from, PeerId to) {
  auto& f = peer(from);
  const auto it = std::find(f.out_links.begin(), f.out_links.end(), to);
  if (it == f.out_links.end()) return false;
  f.out_links.erase(it);
  auto& t = peer(to);
  const auto rit = std::find(t.in_links.begin(), t.in_links.end(), from);
  SEL_ASSERT(rit != t.in_links.end());
  t.in_links.erase(rit);
  bump_links(f);
  bump_links(t);
  if (check::enabled(check::Level::kFull)) {
    check::enforce(check::validate_peer_links(*this, from));
    check::enforce(check::validate_peer_links(*this, to));
  }
  return true;
}

bool RingSubstrate::linked(PeerId a, PeerId b) const {
  const auto& pa = peer(a);
  if (std::find(pa.out_links.begin(), pa.out_links.end(), b) !=
      pa.out_links.end()) {
    return true;
  }
  return std::find(pa.in_links.begin(), pa.in_links.end(), b) !=
         pa.in_links.end();
}

bool RingSubstrate::neighbors_of_contains(PeerId a, PeerId b) const {
  const auto& pa = peer(a);
  return pa.succ == b || pa.pred == b || linked(a, b);
}

std::vector<PeerId> RingSubstrate::neighbor_list(PeerId p) const {
  std::vector<PeerId> out;
  for_each_neighbor(p, [&out](PeerId q) { out.push_back(q); });
  return out;
}

RouteResult RingSubstrate::greedy_route(PeerId src, PeerId dst,
                                  const RouteOptions& opts) const {
  RouteResult result;
  if (!peer(src).joined || !peer(dst).joined) return result;
  std::size_t max_hops = opts.max_hops;
  if (max_hops == 0) {
    const double n = std::max<double>(2.0, static_cast<double>(joined_count_));
    max_hops = static_cast<std::size_t>(4.0 * std::log2(n)) + 32;
  }

  result.path.push_back(src);
  if (src == dst) {
    result.success = true;
    result.status = RouteStatus::kOk;
    return result;
  }
  // No hop may enter an offline peer, so the walk below could only end at a
  // dead end or the TTL: fail at once.
  if (opts.require_online && !peer(dst).online) return result;

  // The visited set is the path itself: a few dozen peers at most.
  const auto visited = [&result](PeerId q) {
    return std::find(result.path.begin(), result.path.end(), q) !=
           result.path.end();
  };
  PeerId current = src;
  const net::OverlayId target = peer(dst).id;

  auto usable = [this, &opts, dst](PeerId q) {
    if (q == kInvalidPeer || !peer(q).joined) return false;
    if (opts.require_online && !peer(q).online) return false;
    if (opts.avoid != nullptr && q != dst && opts.avoid->contains(q)) {
      return false;
    }
    return true;
  };

  // Lookahead claims: from the reverse index of the gossip snapshots when
  // routing on them (overlay/lookahead.hpp), else from live neighbour state.
  const LookaheadCache* cache = opts.lookahead ? opts.lookahead_cache : nullptr;
  if (cache != nullptr) cache->begin_route(dst);
  auto one_hop_from_dst = [&](PeerId w) {
    return cache != nullptr ? cache->snapshot_holds_target(w)
                            : neighbors_of_contains(w, dst);
  };
  auto two_hops_from_dst = [&](PeerId w) {
    if (cache != nullptr) return cache->target_two_snapshots_away(w, usable);
    bool found = false;
    for_each_neighbor(w, [&](PeerId x) {
      if (!found && usable(x) && neighbors_of_contains(x, dst)) found = true;
    });
    return found;
  };

  while (result.path.size() <= max_hops) {
    // Direct neighbour?
    if (neighbors_of_contains(current, dst) && usable(dst)) {
      result.path.push_back(dst);
      result.success = true;
      result.status = RouteStatus::kOk;
      return result;
    }

    PeerId next = kInvalidPeer;

    if (opts.lookahead) {
      // Neighbour whose own neighbour set contains dst (and that is usable):
      // guarantees delivery in two hops from here. With a cache, the claim
      // comes from the gossip snapshot and may be stale — the route then
      // simply continues from w.
      for_each_neighbor(current, [&](PeerId w) {
        if (next != kInvalidPeer) return;
        if (!usable(w) || visited(w)) return;
        if (one_hop_from_dst(w)) next = w;
      });
      if (next == kInvalidPeer && opts.lookahead_depth >= 2) {
        // Depth 2: a neighbour w one of whose usable neighbours x connects
        // to dst (guaranteed 3 hops).
        for_each_neighbor(current, [&](PeerId w) {
          if (next != kInvalidPeer) return;
          if (!usable(w) || visited(w)) return;
          if (two_hops_from_dst(w)) next = w;
        });
      }
    }

    if (next == kInvalidPeer) {
      // Classic greedy: unvisited usable neighbour closest to the target,
      // even when it is no closer than `current` (the visited set prevents
      // loops), so routing survives local minima under churn. Inside a
      // tight id cluster ring distances tie at ~0, so break ties by
      // clockwise distance — this degenerates into an ordered ring walk that
      // always terminates at the target.
      double best = std::numeric_limits<double>::infinity();
      double best_cw = std::numeric_limits<double>::infinity();
      for_each_neighbor(current, [&](PeerId w) {
        if (!usable(w) || visited(w)) return;
        const double d = net::ring_distance(peer(w).id, target);
        const double cw = net::clockwise_distance(peer(w).id, target);
        if (d < best || (d == best && cw < best_cw)) {
          best = d;
          best_cw = cw;
          next = w;
        }
      });
    }

    if (next == kInvalidPeer) return result;  // dead end
    result.path.push_back(next);
    current = next;
    if (current == dst) {
      result.success = true;
      result.status = RouteStatus::kOk;
      return result;
    }
  }
  return result;  // TTL exceeded
}

double RingSubstrate::average_long_degree() const {
  if (joined_count_ == 0) return 0.0;
  std::size_t total = 0;
  for (const auto& p : peers_) {
    if (p.joined) total += p.out_links.size();
  }
  return static_cast<double>(total) / static_cast<double>(joined_count_);
}

}  // namespace sel::overlay

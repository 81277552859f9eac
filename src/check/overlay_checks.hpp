// Structural validators for the overlay substrate: ring ordering and
// long-link symmetry (see check.hpp for the SEL_CHECK levels that gate the
// wired call sites).
//
// All validators are pure readers returning Result (std::nullopt = holds);
// they are inline so the check library never links against select_overlay
// (which itself links select_check).
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "overlay/overlay.hpp"

namespace sel::check {

namespace detail {

/// Members of the ring under validation: joined peers, minus offline ones
/// when the ring was rebuilt online_only.
inline std::vector<overlay::PeerId> ring_members(const overlay::RingSubstrate& ov,
                                                 bool online_only) {
  std::vector<overlay::PeerId> members;
  members.reserve(ov.joined_count());
  for (overlay::PeerId p = 0; p < ov.num_peers(); ++p) {
    if (!ov.joined(p)) continue;
    if (online_only && !ov.online(p)) continue;
    members.push_back(p);
  }
  return members;
}

inline Result check_ring_neighbors_of(const overlay::RingSubstrate& ov,
                                      overlay::PeerId p, std::size_t n) {
  const overlay::PeerId s = ov.successor(p);
  const overlay::PeerId q = ov.predecessor(p);
  if (n == 1) {
    if (s != overlay::kInvalidPeer || q != overlay::kInvalidPeer) {
      return Violation{"overlay.ring.links",
                       "singleton ring member " + std::to_string(p) +
                           " has short-range links"};
    }
    return std::nullopt;
  }
  if (s == overlay::kInvalidPeer || q == overlay::kInvalidPeer) {
    return Violation{"overlay.ring.links",
                     "ring member " + std::to_string(p) +
                         " is missing a successor or predecessor"};
  }
  if (ov.predecessor(s) != p || ov.successor(q) != p) {
    return Violation{"overlay.ring.symmetry",
                     "succ/pred of peer " + std::to_string(p) +
                         " do not point back (succ=" + std::to_string(s) +
                         ", pred=" + std::to_string(q) + ")"};
  }
  return std::nullopt;
}

}  // namespace detail

/// Full ring validation (SEL_CHECK=full): every member has mutually linked
/// succ/pred, the successor walk visits every member exactly once, and ids
/// are sorted by (id, peer) along the walk — the Sec. II-A structure greedy
/// routing depends on.
inline Result validate_ring(const overlay::RingSubstrate& ov,
                            bool online_only = false) {
  const auto members = detail::ring_members(ov, online_only);
  const std::size_t n = members.size();
  for (const overlay::PeerId p : members) {
    if (auto v = detail::check_ring_neighbors_of(ov, p, n)) return v;
  }
  if (n <= 1) return std::nullopt;

  // Start the walk at the (id, peer)-minimum so sortedness along the walk
  // has a single wrap point, at the end.
  overlay::PeerId start = members[0];
  for (const overlay::PeerId p : members) {
    if (ov.id(p) < ov.id(start) ||
        (ov.id(p) == ov.id(start) && p < start)) {
      start = p;
    }
  }
  overlay::PeerId cur = start;
  std::size_t visited = 0;
  overlay::PeerId prev = overlay::kInvalidPeer;
  do {
    if (visited >= n) {
      return Violation{"overlay.ring.closure",
                       "successor walk exceeds member count " +
                           std::to_string(n) + " without closing"};
    }
    if (prev != overlay::kInvalidPeer) {
      const bool ordered =
          ov.id(prev) < ov.id(cur) ||
          (ov.id(prev) == ov.id(cur) && prev < cur);
      if (!ordered) {
        return Violation{"overlay.ring.sorted",
                         "ids out of order along the ring: peer " +
                             std::to_string(prev) + " (id=" +
                             std::to_string(ov.id(prev).value()) +
                             ") precedes peer " + std::to_string(cur) +
                             " (id=" + std::to_string(ov.id(cur).value()) +
                             ")"};
      }
    }
    prev = cur;
    cur = ov.successor(cur);
    ++visited;
  } while (cur != start && cur != overlay::kInvalidPeer);
  if (cur != start || visited != n) {
    return Violation{"overlay.ring.closure",
                     "successor walk visited " + std::to_string(visited) +
                         " of " + std::to_string(n) + " members"};
  }
  return std::nullopt;
}

/// Cheap ring spot-check: succ/pred symmetry for up to `max_samples`
/// strided members. O(max_samples).
inline Result validate_ring_sample(const overlay::RingSubstrate& ov,
                                   bool online_only = false,
                                   std::size_t max_samples = 8) {
  const auto members = detail::ring_members(ov, online_only);
  const std::size_t n = members.size();
  if (n == 0) return std::nullopt;
  const std::size_t stride = std::max<std::size_t>(1, n / max_samples);
  for (std::size_t i = 0; i < n; i += stride) {
    if (auto v = detail::check_ring_neighbors_of(ov, members[i], n)) {
      return v;
    }
  }
  return std::nullopt;
}

/// Long-link table consistency for one peer: no self-loops or duplicates,
/// every endpoint joined, and every link mirrored on the other side
/// (out_links/in_links model one TCP connection, Sec. III-D).
inline Result validate_peer_links(const overlay::RingSubstrate& ov,
                                  overlay::PeerId p) {
  const auto outs = ov.out_links(p);
  const auto ins = ov.in_links(p);
  auto check_side = [&](std::span<const overlay::PeerId> links, bool outgoing)
      -> Result {
    for (std::size_t i = 0; i < links.size(); ++i) {
      const overlay::PeerId q = links[i];
      if (q == p) {
        return Violation{"overlay.links.self_loop",
                         "peer " + std::to_string(p) + " links to itself"};
      }
      if (q >= ov.num_peers() || !ov.joined(q)) {
        return Violation{"overlay.links.endpoint",
                         "peer " + std::to_string(p) +
                             " links to unjoined peer " + std::to_string(q)};
      }
      for (std::size_t j = i + 1; j < links.size(); ++j) {
        if (links[j] == q) {
          return Violation{"overlay.links.duplicate",
                           "peer " + std::to_string(p) +
                               " holds a duplicate link to " +
                               std::to_string(q)};
        }
      }
      const auto mirror = outgoing ? ov.in_links(q) : ov.out_links(q);
      if (std::find(mirror.begin(), mirror.end(), p) == mirror.end()) {
        return Violation{"overlay.links.symmetry",
                         "link " + std::to_string(outgoing ? p : q) + "->" +
                             std::to_string(outgoing ? q : p) +
                             " is missing its mirror entry on peer " +
                             std::to_string(q)};
      }
    }
    return std::nullopt;
  };
  if (auto v = check_side(outs, /*outgoing=*/true)) return v;
  if (auto v = check_side(ins, /*outgoing=*/false)) return v;
  return std::nullopt;
}

/// Global link-symmetry sweep (SEL_CHECK=full): validate_peer_links for
/// every joined peer. O(sum degree^2) with degrees ~K.
inline Result validate_link_symmetry(const overlay::RingSubstrate& ov) {
  for (overlay::PeerId p = 0; p < ov.num_peers(); ++p) {
    if (!ov.joined(p)) continue;
    if (auto v = validate_peer_links(ov, p)) return v;
  }
  return std::nullopt;
}

/// Version-gated recompute (DESIGN.md §13): derived state kept because the
/// versions it read did not move must equal its recompute. SEL_CHECK=full
/// recomputes anyway and passes how many entries the recompute changed.
inline Result validate_gated_skip(const char* invariant, overlay::PeerId p,
                                  std::size_t divergent) {
  if (divergent == 0) return std::nullopt;
  return Violation{invariant, "peer " + std::to_string(p) +
                                  ": the skipped recompute changes " +
                                  std::to_string(divergent) + " entries"};
}

}  // namespace sel::check

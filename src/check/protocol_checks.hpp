// Validators for SELECT protocol invariants: identifier-reassignment
// geometry (Alg. 2), LSH index bounds (Algs. 5-6) and the per-peer link
// budget (Sec. III-D). Inline for the same layering reason as
// overlay_checks.hpp.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_set>

#include "check/check.hpp"
#include "lsh/lsh.hpp"
#include "net/id_space.hpp"
#include "overlay/overlay.hpp"

namespace sel::check {

/// Alg. 2 step geometry: the damped move must head toward the centroid
/// (ring distance to the target never grows) and must not overshoot the
/// half-ring (|step| <= damping * 0.5, the farthest any target can be).
inline Result validate_id_step(net::OverlayId cur, net::OverlayId target,
                               net::OverlayId next, double damping) {
  constexpr double kEps = 1e-9;
  const double before = net::ring_distance(cur, target);
  const double after = net::ring_distance(next, target);
  if (after > before + kEps) {
    return Violation{"select.reassign.monotone",
                     "id step moved away from the centroid: distance " +
                         std::to_string(before) + " -> " +
                         std::to_string(after)};
  }
  const double step = net::ring_distance(cur, next);
  if (step > damping * 0.5 + kEps) {
    return Violation{"select.reassign.overshoot",
                     "id step of " + std::to_string(step) +
                         " exceeds the damped half-ring bound " +
                         std::to_string(damping * 0.5)};
  }
  return std::nullopt;
}

/// Alg. 5 bucket-count bound: the index must keep exactly |H| = K buckets.
/// O(1); the cheap-level check after every create_links().
inline Result validate_lsh_bucket_bound(const lsh::LshIndex& index,
                                        std::size_t k) {
  if (index.num_buckets() != k) {
    return Violation{"select.lsh.bucket_count",
                     "index has " + std::to_string(index.num_buckets()) +
                         " buckets, expected |H| = K = " + std::to_string(k)};
  }
  return std::nullopt;
}

/// Full LSH index validation: bucket bound, entry count consistency, no
/// peer indexed twice, and every entry stored in the bucket its bitmap
/// hashes to. `bitmap_of(position)` returns the owner's bitmap for the
/// friend at that position of its friend list.
template <class BitmapOf>
Result validate_lsh_index(const lsh::LshIndex& index, std::size_t k,
                          BitmapOf&& bitmap_of) {
  if (auto v = validate_lsh_bucket_bound(index, k)) return v;
  std::size_t total = 0;
  std::unordered_set<std::uint32_t> seen;
  for (std::size_t b = 0; b < index.num_buckets(); ++b) {
    for (const auto& entry : index.bucket(b)) {
      ++total;
      if (!seen.insert(entry.peer).second) {
        return Violation{"select.lsh.duplicate_peer",
                         "peer " + std::to_string(entry.peer) +
                             " indexed in more than one bucket"};
      }
      const std::size_t hashed = index.bucket_of(bitmap_of(entry.position));
      if (hashed != b) {
        return Violation{"select.lsh.misplaced",
                         "peer " + std::to_string(entry.peer) +
                             " stored in bucket " + std::to_string(b) +
                             " but hashes to bucket " +
                             std::to_string(hashed)};
      }
    }
  }
  if (total != index.size()) {
    return Violation{"select.lsh.size",
                     "index size() = " + std::to_string(index.size()) +
                         " but buckets hold " + std::to_string(total) +
                         " entries"};
  }
  return std::nullopt;
}

/// Sec. III-D link budget: a peer maintains at most K outgoing long links
/// and admits at most K incoming ones.
inline Result validate_link_budget(const overlay::RingSubstrate& ov,
                                   overlay::PeerId p, std::size_t k) {
  if (ov.out_degree(p) > k) {
    return Violation{"select.links.out_budget",
                     "peer " + std::to_string(p) + " holds " +
                         std::to_string(ov.out_degree(p)) +
                         " outgoing long links, budget K = " +
                         std::to_string(k)};
  }
  if (ov.in_degree(p) > k) {
    return Violation{"select.links.in_budget",
                     "peer " + std::to_string(p) + " admits " +
                         std::to_string(ov.in_degree(p)) +
                         " incoming long links, cap K = " +
                         std::to_string(k)};
  }
  return std::nullopt;
}

}  // namespace sel::check

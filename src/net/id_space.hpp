// The overlay identifier space I = [0, 1) (paper Sec. II-A).
//
// Identifiers live on the unit ring. SELECT's whole contribution rests on
// *mutable* identifiers, so OverlayId is a value type with the ring geometry
// the algorithms need: shortest-arc distance, clockwise distance, and the
// shorter-arc midpoint used by identifier reassignment (Alg. 2). Projection
// (Alg. 1) places an invited peer at the midpoint of its inviter's clockwise
// gap (SelectSystem::join_all), not at a fixed offset from the inviter.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace sel::net {

class OverlayId {
 public:
  constexpr OverlayId() = default;

  /// Wraps `value` into [0, 1).
  explicit OverlayId(double value) : value_(wrap(value)) {}

  [[nodiscard]] constexpr double value() const noexcept { return value_; }

  /// Uniform hash of an arbitrary 64-bit key into the ID space (the paper's
  /// SHA-1 role; SplitMix64 is an adequate uniform mixer here).
  [[nodiscard]] static OverlayId from_hash(std::uint64_t key) noexcept {
    return OverlayId(static_cast<double>(splitmix64(key) >> 11) * 0x1.0p-53);
  }

  [[nodiscard]] constexpr auto operator<=>(const OverlayId&) const = default;

 private:
  [[nodiscard]] static double wrap(double v) noexcept {
    v = v - std::floor(v);
    // floor of a value just below an integer can still round to 1.0.
    if (v >= 1.0) v -= 1.0;
    return v;
  }

  double value_ = 0.0;
};

/// Shortest-arc (ring) distance d_I(u, v) in [0, 0.5].
[[nodiscard]] double ring_distance(OverlayId a, OverlayId b) noexcept;

/// Clockwise distance from a to b in [0, 1): how far to travel in the
/// increasing-id direction.
[[nodiscard]] double clockwise_distance(OverlayId a, OverlayId b) noexcept;

/// Midpoint of the *shorter* arc between a and b — the "centroid" of two
/// positions used by identifier reassignment (Alg. 2). When a and b are
/// antipodal the clockwise midpoint from a is returned.
[[nodiscard]] OverlayId ring_midpoint(OverlayId a, OverlayId b) noexcept;

/// Moves `id` by a signed offset along the ring.
[[nodiscard]] OverlayId advance(OverlayId id, double offset) noexcept;

}  // namespace sel::net

#include "net/id_space.hpp"

namespace sel::net {

double ring_distance(OverlayId a, OverlayId b) noexcept {
  const double d = std::fabs(a.value() - b.value());
  return d <= 0.5 ? d : 1.0 - d;
}

double clockwise_distance(OverlayId a, OverlayId b) noexcept {
  double d = b.value() - a.value();
  if (d < 0.0) d += 1.0;
  return d;
}

OverlayId ring_midpoint(OverlayId a, OverlayId b) noexcept {
  const double cw = clockwise_distance(a, b);
  if (cw <= 0.5) {
    return advance(a, cw / 2.0);
  }
  // Shorter arc runs counterclockwise from a; equivalently clockwise from b.
  return advance(b, (1.0 - cw) / 2.0);
}

OverlayId advance(OverlayId id, double offset) noexcept {
  return OverlayId(id.value() + offset);
}

}  // namespace sel::net

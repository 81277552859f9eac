// The one table of evaluated overlays. The paper's comparison set (SELECT,
// Symphony, Bayeux, Vitis, OMen) comes first, in the paper's order — the
// figure harnesses iterate exactly these — followed by the overlays only
// the comparison matrix and the conformance suite measure: the random-mesh
// control, the socially-aware DHT and centrality-weighted SELECT.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/social_graph.hpp"
#include "overlay/routing.hpp"

namespace sel::net {
class NetworkModel;
}

namespace sel::baselines {

/// Options every overlay constructor understands. Call sites name what they
/// set, and adding a knob does not break them.
struct OverlayConfig {
  /// Master seed; every derived RNG stream forks from it deterministically.
  std::uint64_t seed = 1;
  /// Long-link / contact budget. 0 = the overlay's own default
  /// (typically log2 N).
  std::size_t k_links = 0;
  /// Shared network model (latency, availability). Overlays that need one
  /// own a private instance when null. Not owned.
  const net::NetworkModel* net = nullptr;
};

/// Every overlay name in table order; `paper_only` keeps the paper's
/// comparison set.
[[nodiscard]] std::vector<std::string> overlay_names(bool paper_only = false);

/// Constructs the named overlay (not yet built):
///
///   auto ov = make_overlay("symphony", g, {.seed = 7, .k_links = 4});
///
/// Aborts on unknown names. Pre-registers the overlay's `overlay.<name>.*`
/// counter family so a report emitted before any traffic still carries the
/// full schema.
[[nodiscard]] std::unique_ptr<overlay::Overlay> make_overlay(
    std::string_view name, const graph::SocialGraph& g,
    const OverlayConfig& config = {});

}  // namespace sel::baselines

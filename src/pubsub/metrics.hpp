// Pub/sub evaluation metrics (paper Sec. IV-B), computed uniformly over any
// overlay (lookups) or its PubSubSystem view (trees):
//   - number of hops per social lookup            (Fig. 2)
//   - number of relay nodes per routing path/tree (Fig. 3)
//   - percentage of messages forwarded per degree (Fig. 4, load balance)
//   - dissemination latency                       (Fig. 7, Eq. 1)
//   - communication availability under churn      (Fig. 6)
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "net/network_model.hpp"
#include "overlay/system.hpp"

namespace sel::pubsub {

// ---------------------------------------------------------------------------
// Hops per social lookup (Fig. 2)
// ---------------------------------------------------------------------------
struct HopMetrics {
  RunningStats hops;        ///< over successful lookups
  std::size_t attempted = 0;
  std::size_t delivered = 0;

  [[nodiscard]] double success_rate() const noexcept {
    return attempted == 0
               ? 0.0
               : static_cast<double>(delivered) / static_cast<double>(attempted);
  }
};

/// Routes `lookups` randomly sampled (user, friend) pairs through the overlay.
[[nodiscard]] HopMetrics measure_hops(const overlay::Overlay& ov,
                                      std::size_t lookups, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Relay nodes (Fig. 3)
// ---------------------------------------------------------------------------
struct RelayMetrics {
  /// Relay nodes per publisher->subscriber routing path (intermediate peers
  /// that are not subscribers of the topic).
  RunningStats relays_per_path;
  /// Distinct relay nodes per routing tree.
  RunningStats relays_per_tree;
  /// Subscribers actually covered by the tree, as a fraction.
  RunningStats coverage;
};

/// Builds routing trees for the given publishers and counts relays.
[[nodiscard]] RelayMetrics measure_relays(
    const overlay::PubSubSystem& sys,
    const std::vector<overlay::PeerId>& publishers);

// ---------------------------------------------------------------------------
// Forwarding load vs social degree (Fig. 4)
// ---------------------------------------------------------------------------
struct LoadMetrics {
  /// Forwarded-message share per degree decile: bucket 0 holds the
  /// lowest-degree tenth of peers, bucket 9 the highest-degree tenth. Values
  /// sum to ~100 (percent).
  std::vector<double> share_by_degree_decile;
  /// Share of all forwards handled by the top-10% social-degree peers
  /// (the hotspot measure the paper's text discusses).
  double top_decile_share = 0.0;
  /// Gini coefficient of per-peer forward counts (0 = perfectly balanced).
  double gini = 0.0;
  /// Fraction of all forwards performed by peers that are NOT subscribed to
  /// the message they forward — pure relay traffic. Near zero for SELECT
  /// (friends forward to friends), large for DHT-based systems.
  double relay_forward_share = 0.0;
  /// Average forwards per delivered subscriber (message overhead).
  double forwards_per_delivery = 0.0;
};

[[nodiscard]] LoadMetrics measure_load(
    const overlay::PubSubSystem& sys,
    const std::vector<overlay::PeerId>& publishers);

// ---------------------------------------------------------------------------
// Dissemination latency (Fig. 7)
// ---------------------------------------------------------------------------
struct LatencyMetrics {
  /// Arrival latency per delivered subscriber, seconds.
  RunningStats per_subscriber_s;
  /// Tree completion latency per publisher: max over subscribers (Eq. 1).
  RunningStats per_tree_s;
};

/// Simulates payload dissemination down each tree. A node forwards to all
/// its tree children simultaneously, splitting its uplink (the simultaneous-
/// transfer effect of Sec. IV-D).
[[nodiscard]] LatencyMetrics measure_latency(
    const overlay::PubSubSystem& sys, const net::NetworkModel& net,
    const std::vector<overlay::PeerId>& publishers,
    double payload_bytes = net::kDefaultPayloadBytes);

// ---------------------------------------------------------------------------
// Availability under churn (Fig. 6)
// ---------------------------------------------------------------------------
struct AvailabilityMetrics {
  std::size_t wanted = 0;     ///< online subscribers of online publishers
  std::size_t delivered = 0;  ///< of those, how many the tree reached

  [[nodiscard]] double availability() const noexcept {
    return wanted == 0 ? 1.0
                       : static_cast<double>(delivered) /
                             static_cast<double>(wanted);
  }
};

/// Publishes from each (online) publisher and checks which online
/// subscribers the dissemination tree reaches.
[[nodiscard]] AvailabilityMetrics measure_availability(
    const overlay::PubSubSystem& sys,
    const std::vector<overlay::PeerId>& publishers);

}  // namespace sel::pubsub

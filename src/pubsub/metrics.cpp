#include "pubsub/metrics.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/rng.hpp"

namespace sel::pubsub {

using overlay::PeerId;

HopMetrics measure_hops(const overlay::Overlay& ov, std::size_t lookups,
                        std::uint64_t seed) {
  HopMetrics metrics;
  const auto& g = ov.social();
  const std::size_t n = g.num_nodes();
  if (n == 0) return metrics;
  Rng rng(seed);
  for (std::size_t i = 0; i < lookups; ++i) {
    // Sample a user with at least one friend, then a random friend: a
    // "social lookup" is always between socially connected peers.
    PeerId from = overlay::kInvalidPeer;
    for (int attempts = 0; attempts < 256; ++attempts) {
      const auto candidate = static_cast<PeerId>(rng.below(n));
      if (g.degree(candidate) > 0) {
        from = candidate;
        break;
      }
    }
    if (from == overlay::kInvalidPeer) break;  // graph has (almost) no edges
    const auto nbrs = g.neighbors(from);
    const PeerId to = nbrs[rng.below(nbrs.size())];
    ++metrics.attempted;
    const overlay::RouteResult r = ov.route(from, to);
    if (r.success) {
      ++metrics.delivered;
      metrics.hops.add(static_cast<double>(r.hops()));
    }
  }
  return metrics;
}

RelayMetrics measure_relays(const overlay::PubSubSystem& sys,
                            const std::vector<PeerId>& publishers) {
  RelayMetrics metrics;
  for (const PeerId b : publishers) {
    const auto subscribers = sys.subscribers_of(b);
    if (subscribers.empty()) continue;
    const overlay::DisseminationTree tree = sys.build_tree(b);

    // Per-path relays: walk from each delivered subscriber to the root,
    // counting intermediate nodes that are not subscribers themselves.
    std::size_t delivered = 0;
    for (const PeerId s : subscribers) {
      if (!tree.contains(s)) continue;
      ++delivered;
      std::size_t relays = 0;
      PeerId cur = tree.parent(s);
      while (cur != overlay::kInvalidPeer && cur != b) {
        if (!subscribers.contains(cur)) ++relays;
        cur = tree.parent(cur);
      }
      metrics.relays_per_path.add(static_cast<double>(relays));
    }
    metrics.relays_per_tree.add(
        static_cast<double>(tree.relay_nodes(subscribers).size()));
    metrics.coverage.add(static_cast<double>(delivered) /
                         static_cast<double>(subscribers.size()));
  }
  return metrics;
}

LoadMetrics measure_load(const overlay::PubSubSystem& sys,
                         const std::vector<PeerId>& publishers) {
  LoadMetrics metrics;
  const auto& g = sys.overlay().social();
  const std::size_t n = g.num_nodes();
  if (n == 0) return metrics;

  std::vector<double> forwards(n, 0.0);
  double relay_forwards = 0.0;
  double deliveries = 0.0;
  for (const PeerId b : publishers) {
    const auto subscribers = sys.subscribers_of(b);
    const overlay::DisseminationTree tree = sys.build_tree(b);
    for (const PeerId node : tree.nodes()) {
      const auto fwd = static_cast<double>(tree.forward_count(node));
      forwards[node] += fwd;
      if (node != b && !subscribers.contains(node)) relay_forwards += fwd;
      if (node != b && subscribers.contains(node)) deliveries += 1.0;
    }
  }
  const double total =
      std::accumulate(forwards.begin(), forwards.end(), 0.0);
  metrics.relay_forward_share = total > 0.0 ? relay_forwards / total : 0.0;
  metrics.forwards_per_delivery = deliveries > 0.0 ? total / deliveries : 0.0;

  // Rank peers by social degree (ascending) and split into deciles.
  std::vector<PeerId> by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), PeerId{0});
  std::sort(by_degree.begin(), by_degree.end(), [&g](PeerId a, PeerId b2) {
    if (g.degree(a) != g.degree(b2)) return g.degree(a) < g.degree(b2);
    return a < b2;
  });
  metrics.share_by_degree_decile.assign(10, 0.0);
  if (total > 0.0) {
    for (std::size_t rank = 0; rank < n; ++rank) {
      const std::size_t decile = std::min<std::size_t>(rank * 10 / n, 9);
      metrics.share_by_degree_decile[decile] +=
          forwards[by_degree[rank]] / total * 100.0;
    }
    metrics.top_decile_share = metrics.share_by_degree_decile[9];
  }

  // Gini over per-peer forward counts.
  if (total > 0.0 && n > 1) {
    std::vector<double> sorted(forwards);
    std::sort(sorted.begin(), sorted.end());
    double weighted = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      weighted += static_cast<double>(i + 1) * sorted[i];
    }
    const double nd = static_cast<double>(n);
    metrics.gini = (2.0 * weighted) / (nd * total) - (nd + 1.0) / nd;
  }
  return metrics;
}

LatencyMetrics measure_latency(const overlay::PubSubSystem& sys,
                               const net::NetworkModel& net,
                               const std::vector<PeerId>& publishers,
                               double payload_bytes) {
  LatencyMetrics metrics;
  for (const PeerId b : publishers) {
    const auto subscribers = sys.subscribers_of(b);
    if (subscribers.empty()) continue;
    const overlay::DisseminationTree tree = sys.build_tree(b);

    // Nodes are in delivery order (parents precede children), so a single
    // pass computes arrival times. Each node pushes to all children
    // simultaneously, splitting its uplink across them.
    std::unordered_map<PeerId, double> arrival;
    arrival.reserve(tree.node_count());
    arrival[tree.root()] = 0.0;
    double tree_latency = 0.0;
    for (const PeerId node : tree.nodes()) {
      const auto kids = tree.children(node);
      if (kids.empty()) continue;
      const double start = arrival.at(node);
      for (const PeerId child : kids) {
        const double t =
            start + net.transfer_time_s(node, child, payload_bytes,
                                        kids.size());
        arrival[child] = t;
        if (subscribers.contains(child)) {
          metrics.per_subscriber_s.add(t);
          tree_latency = std::max(tree_latency, t);
        }
      }
    }
    metrics.per_tree_s.add(tree_latency);
  }
  return metrics;
}

AvailabilityMetrics measure_availability(
    const overlay::PubSubSystem& sys, const std::vector<PeerId>& publishers) {
  AvailabilityMetrics metrics;
  for (const PeerId b : publishers) {
    if (!sys.overlay().peer_online(b)) continue;
    const auto subscribers = sys.subscribers_of(b);
    const overlay::DisseminationTree tree = sys.build_tree(b);
    for (const PeerId s : subscribers) {
      // Offline users don't expect delivery.
      if (!sys.overlay().peer_online(s)) continue;
      ++metrics.wanted;
      if (tree.contains(s)) ++metrics.delivered;
    }
  }
  return metrics;
}

}  // namespace sel::pubsub

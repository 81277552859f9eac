#include "baselines/factory.hpp"

#include <algorithm>
#include <iterator>

#include "baselines/bayeux.hpp"
#include "baselines/omen.hpp"
#include "baselines/random_mesh.hpp"
#include "baselines/social_dht.hpp"
#include "baselines/symphony.hpp"
#include "baselines/vitis.hpp"
#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "select/protocol.hpp"

namespace sel::baselines {

namespace {

using OverlayPtr = std::unique_ptr<overlay::Overlay>;

struct OverlayRow {
  std::string_view name;
  bool paper;  ///< in the paper's comparison set (Figs. 2-7)
  OverlayPtr (*make)(const graph::SocialGraph&, const OverlayConfig&);
};

OverlayPtr make_select(const graph::SocialGraph& g, const OverlayConfig& c,
                       double centrality_weight) {
  core::SelectParams params;
  params.k_links = c.k_links;
  params.centrality_weight = centrality_weight;
  return std::make_unique<core::SelectSystem>(g, params, c.seed, c.net);
}

constexpr OverlayRow kOverlays[] = {
    {"select", true,
     [](const graph::SocialGraph& g, const OverlayConfig& c) {
       return make_select(g, c, 0.0);
     }},
    {"symphony", true,
     [](const graph::SocialGraph& g, const OverlayConfig& c) -> OverlayPtr {
       return std::make_unique<SymphonySystem>(
           g, SymphonyParams{.k_links = c.k_links}, c.seed);
     }},
    {"bayeux", true,
     [](const graph::SocialGraph& g, const OverlayConfig& c) -> OverlayPtr {
       return std::make_unique<BayeuxSystem>(g, BayeuxParams{}, c.seed);
     }},
    {"vitis", true,
     [](const graph::SocialGraph& g, const OverlayConfig& c) -> OverlayPtr {
       return std::make_unique<VitisSystem>(
           g, VitisParams{.k_links = c.k_links}, c.seed);
     }},
    {"omen", true,
     [](const graph::SocialGraph& g, const OverlayConfig& c) -> OverlayPtr {
       return std::make_unique<OmenSystem>(
           g, OmenParams{.degree_budget = c.k_links * 2}, c.seed);
     }},
    {"random", false,
     [](const graph::SocialGraph& g, const OverlayConfig& c) -> OverlayPtr {
       return std::make_unique<RandomMeshSystem>(g, c.k_links, c.seed);
     }},
    {"social_dht", false,
     [](const graph::SocialGraph& g, const OverlayConfig& c) -> OverlayPtr {
       return std::make_unique<SocialDhtSystem>(
           g, SocialDhtParams{.k_links = c.k_links}, c.seed);
     }},
    // Kourtellis-style centrality weighting: one unit of coverage score per
    // ~4 degrees of the candidate.
    {"select_centrality", false,
     [](const graph::SocialGraph& g, const OverlayConfig& c) {
       return make_select(g, c, 0.25);
     }},
};

}  // namespace

std::vector<std::string> overlay_names(bool paper_only) {
  std::vector<std::string> names;
  for (const OverlayRow& row : kOverlays) {
    if (row.paper || !paper_only) names.emplace_back(row.name);
  }
  return names;
}

OverlayPtr make_overlay(std::string_view name, const graph::SocialGraph& g,
                        const OverlayConfig& config) {
  const auto* row = std::find_if(
      std::begin(kOverlays), std::end(kOverlays),
      [name](const OverlayRow& r) { return r.name == name; });
  SEL_ASSERT(row != std::end(kOverlays) && "unknown overlay name");
  auto& metrics = obs::MetricsRegistry::global();
  const std::string prefix = "overlay." + std::string(name);
  metrics.counter(prefix + ".routes_attempted");
  metrics.counter(prefix + ".routes_ok");
  metrics.counter(prefix + ".routes_failed");
  metrics.counter(prefix + ".maintenance_rounds");
  return row->make(g, config);
}

}  // namespace sel::baselines

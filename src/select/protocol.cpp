#include "select/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "check/memory_checks.hpp"
#include "check/overlay_checks.hpp"
#include "check/protocol_checks.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/sampler.hpp"
#include "obs/time.hpp"
#include "obs/trace.hpp"

namespace sel::core {

using overlay::PeerId;

namespace {

/// The paper assigns log2(N) direct connections per peer (Sec. IV-C).
std::size_t default_k(std::size_t n) {
  if (n < 4) return 2;
  return static_cast<std::size_t>(std::log2(static_cast<double>(n)));
}

/// Protocol telemetry (naming: `select.*`). Handles resolve once; increments
/// are relaxed atomic adds, no-ops under SEL_OBS=off.
obs::Counter& gossip_exchanges_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("select.gossip_exchanges");
  return c;
}

obs::Counter& id_reassignments_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("select.id_reassignments");
  return c;
}

obs::Counter& link_establishments_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("select.link_establishments");
  return c;
}

obs::Counter& link_reassignments_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("select.link_reassignments");
  return c;
}

obs::Counter& rounds_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("select.rounds");
  return c;
}

}  // namespace

SelectSystem::SelectSystem(const graph::SocialGraph& g, SelectParams params,
                           std::uint64_t seed, const net::NetworkModel* net)
    : RingOverlay(g, overlay::RouteOptions{}),
      params_(params),
      seed_(seed),
      k_(params.k_links != 0 ? params.k_links : default_k(g.num_nodes())),
      state_(g.num_nodes()),
      cma_(g.num_nodes()),
      tie_index_(g),
      lookahead_(overlay_),
      positions_(g.num_nodes()) {
  // SELECT routes with gossip-maintained L_p snapshots, not live global
  // knowledge, and uses the deeper lookahead its friends' friendship
  // bitmaps afford (Sec. III-E).
  route_options_.lookahead_cache = &lookahead_;
  route_options_.lookahead_depth = 2;
  // The trace epoch is fixed by its first read: read it before round 0
  // starts, so no exported round slice starts before zero.
  if (obs::enabled()) (void)obs::wall_now_us();
  if (net != nullptr) {
    net_ = net;
  } else {
    owned_net_.emplace(g.num_nodes(), derive_seed(seed, 0x6e6574ULL));
    net_ = &*owned_net_;
  }
  for (PeerId p = 0; p < g.num_nodes(); ++p) {
    auto& st = state_[p];
    const std::size_t deg = g.degree(p);
    st.friends.resize(deg);
    for (std::size_t i = 0; i < deg; ++i) {
      auto& f = st.friends[i];
      f.bitmap = DynamicBitset(deg);
      // A friend trivially "covers" itself: seed each bitmap with the
      // friend's own position so unlearned bitmaps stay distinguishable
      // (otherwise every unknown friend would collide into one LSH bucket
      // and the link budget would collapse to a single link).
      f.bitmap.set(i);
    }
    st.rng = Rng(derive_seed(seed, 0x70656572ULL ^ p));
    if (deg > 0) {
      const std::size_t bits =
          std::min<std::size_t>(params_.lsh_bits_per_hash,
                                std::max<std::size_t>(deg, 1));
      st.index.emplace(deg, k_, bits, derive_seed(seed, 0x6c7368ULL ^ p));
    }
  }
}

std::size_t SelectSystem::friend_index(PeerId p, PeerId friend_peer) const {
  const auto nbrs = graph_->neighbors(p);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), friend_peer);
  SEL_EXPECTS(it != nbrs.end() && *it == friend_peer);
  return static_cast<std::size_t>(it - nbrs.begin());
}

void SelectSystem::join_all() {
  if (schedule_.empty()) {
    schedule_ = sim::growth_schedule(*graph_, sim::GrowthParams{},
                                     derive_seed(seed_, 0x67726f77ULL));
  }
  // Live ring view during the join phase: invited peers take the midpoint
  // of their inviter's clockwise gap (Alg. 1's "minimize distance to the
  // inviter", realized as Chord-style gap splitting). Placing them at a
  // fixed epsilon instead would stack the whole invitation tree onto one
  // point and leave the rest of the ring empty.
  std::map<double, PeerId> ring_map;
  auto place_unique = [&ring_map](net::OverlayId id) {
    double v = id.value();
    while (ring_map.contains(v)) {
      v = net::advance(net::OverlayId(v), 1e-12).value();
    }
    return net::OverlayId(v);
  };
  for (const auto& event : schedule_) {
    net::OverlayId id;
    if (params_.enable_invite_projection &&
        event.inviter != graph::kInvalidNode &&
        overlay_.joined(event.inviter)) {
      const double inviter_id = overlay_.id(event.inviter).value();
      auto next = ring_map.upper_bound(inviter_id);
      if (next == ring_map.end()) next = ring_map.begin();
      const double gap = net::clockwise_distance(
          net::OverlayId(inviter_id), net::OverlayId(next->first));
      const double effective_gap = gap > 0.0 ? gap : 1.0;
      id = place_unique(
          net::advance(net::OverlayId(inviter_id), effective_gap / 2.0));
    } else {
      id = place_unique(
          net::OverlayId::from_hash(derive_seed(seed_, event.user)));
    }
    ring_map.emplace(id.value(), event.user);
    overlay_.join(event.user, id);
    // "SELECT establishes immediately the connections between peers that
    // are socially-connected" (Sec. IV-C discussion of Fig. 5): link to up
    // to K already-joined friends right away.
    std::size_t added = 0;
    for (const graph::NodeId f : graph_->neighbors(event.user)) {
      if (added >= k_) break;
      if (overlay_.joined(f) && try_connect(event.user, f)) ++added;
    }
  }
  overlay_.rebuild_ring();
}

void SelectSystem::build() {
  SEL_TRACE_SCOPE("select.build");
  join_all();
  rounds_run_ = run_to_convergence();
  if (obs::enabled()) {
    // Last-write-wins run descriptors (the final trial of a sweep).
    auto& reg = obs::MetricsRegistry::global();
    reg.gauge("select.run.n").set(static_cast<double>(graph_->num_nodes()));
    reg.gauge("select.run.seed").set(static_cast<double>(seed_));
    reg.gauge("select.run.k").set(static_cast<double>(k_));
    reg.gauge("select.run.rounds").set(static_cast<double>(rounds_run_));
  }
}

std::size_t SelectSystem::run_to_convergence() {
  quiet_streak_ = 0;
  std::size_t rounds = 0;
  while (rounds < params_.max_rounds && !converged()) {
    run_round();
    ++rounds;
  }
  return rounds;
}

bool SelectSystem::run_round() {
  SEL_TRACE_SCOPE("select.round");
  const bool obs_on = obs::enabled();
  obs::WallTimePoint t_start{};
  if (obs_on) t_start = obs::wall_now();

  double movement = 0.0;
  std::size_t relocations = 0;
  std::size_t link_changes = 0;
  std::size_t exchanges = 0;

  for (PeerId p = 0; p < graph_->num_nodes(); ++p) {
    if (!overlay_.joined(p) || !overlay_.online(p)) continue;
    auto& st = state_[p];
    const auto nbrs = graph_->neighbors(p);
    if (nbrs.empty()) continue;

    // Active thread (Alg. 3): exchanges with random joined friends.
    for (std::size_t x = 0; x < params_.exchanges_per_round; ++x) {
      std::size_t partner = nbrs.size();  // friend position; none yet
      for (int attempts = 0; attempts < 8; ++attempts) {
        const std::size_t at = st.rng.below(nbrs.size());
        if (overlay_.joined(nbrs[at]) && overlay_.online(nbrs[at])) {
          partner = at;
          break;
        }
      }
      if (partner != nbrs.size()) {
        exchange(p, partner);
        ++exchanges;
      }
    }

    if (params_.enable_id_reassignment) {
      const double step = evaluate_position(p);
      movement += step;
      if (step > 0.0) id_reassignments_counter().add(1);
      if (step > params_.settle_radius / 2.0) ++relocations;
    }
    const std::size_t changed = create_links(p);
    if (changed > 0) lookahead_.refresh(p);
    link_changes += changed;
  }

  obs::WallTimePoint t_compute{};
  if (obs_on) t_compute = obs::wall_now();

  overlay_.rebuild_ring();

  // Post-round structural invariants (Algs. 2, 5-6): the ring itself is
  // validated inside rebuild_ring; full level additionally sweeps routing
  // table symmetry across every peer once per round.
  if (check::enabled(check::Level::kFull)) {
    check::enforce(check::validate_link_symmetry(overlay_));
  }

  if (obs_on) {
    rounds_counter().add(1);
    link_reassignments_counter().add(static_cast<std::int64_t>(link_changes));
    // The round's one record: counter deltas plus protocol gauges, and the
    // wall time of its two phases — the gossip/relink peer loop (compute)
    // and the ring rebuild (deliver). `id_movement` also drives the
    // rounds-to-stable-ids metric.
    const auto t_end = obs::wall_now();
    obs::RoundSampler::global().sample(
        "select.round", telemetry_round_++,
        {{"id_movement", movement},
         {"relocations", static_cast<double>(relocations)},
         {"link_changes", static_cast<double>(link_changes)},
         {"exchanges", static_cast<double>(exchanges)},
         {"compute_ms", obs::ms_between(t_start, t_compute)},
         {"deliver_ms", obs::ms_between(t_compute, t_end)}});
  }
  // SEL_MEM_BUDGET: one validation per protocol round covers the overlay's
  // link growth (the engine covers the message plane at publish).
  check::check_memory_budget();

  last_movement_ = movement;
  last_link_changes_ = link_changes;
  // Quiet: almost nobody relocated significantly and link churn is below
  // ~1% of peers. Gossip keeps propagating knowledge forever (a hub samples
  // one friend per round), so isolated late relocations and occasional link
  // swaps are steady-state behaviour, not construction.
  const auto joined = std::max<std::size_t>(overlay_.joined_count(), 1);
  const bool quiet =
      relocations <= std::max<std::size_t>(1, joined / 200) &&
      link_changes <= std::max<std::size_t>(2, joined / 100);
  quiet_streak_ = quiet ? quiet_streak_ + 1 : 0;
  return quiet;
}

void SelectSystem::exchange(PeerId p, std::size_t u_at_p) {
  gossip_exchanges_counter().add(1);
  const auto np = graph_->neighbors(p);
  const PeerId u = np[u_at_p];
  const auto nu = graph_->neighbors(u);
  const std::size_t p_at_u = graph_->mirror(p, u_at_p);
  // Both sides learn the mutual-friend count (Alg. 4 line 3) and each
  // other's routing table (friendship bitmaps, Alg. 4 lines 5-8). The count
  // is symmetric and friend pairs repeat across rounds, so it comes from
  // the tie-strength cache rather than a fresh adjacency merge.
  const auto common =
      static_cast<double>(tie_index_.common_neighbors(p, u_at_p));
  state_[p].friends[u_at_p].strength =
      common / static_cast<double>(np.size());
  state_[u].friends[p_at_u].strength =
      common / static_cast<double>(nu.size());
  // Alg. 4 lines 5-8: the exchanged routing tables also refresh what each
  // side knows about the overlay connections of *mutual* friends (u is
  // socially connected to them and relays their link state), and the L_w
  // snapshots. The merge walk yields w's position in both friend lists.
  mutual_.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < np.size() && j < nu.size()) {
    const PeerId a = np[i];
    const PeerId b = nu[j];
    if (a == b && overlay_.joined(a)) {
      mutual_.emplace_back(i, j);
      lookahead_.refresh(a);
    }
    i += a <= b;
    j += b <= a;
  }
  // A bitmap refresh reads only the overlay and writes only its own peer's
  // state, so p's refreshes run first and u's second: one position-map
  // fill each when they recompute.
  refresh_bitmap(p, u_at_p);
  for (const auto& at : mutual_) refresh_bitmap(p, at.first);
  refresh_bitmap(u, p_at_u);
  for (const auto& at : mutual_) refresh_bitmap(u, at.second);
  // The exchanged routing tables refresh the lookahead snapshots L_p too.
  lookahead_.refresh(p);
  lookahead_.refresh(u);
}

void SelectSystem::load_positions(PeerId p) {
  if (positions_owner_ == p) return;
  const auto nbrs = graph_->neighbors(p);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    positions_[nbrs[i]] = {p, static_cast<std::uint32_t>(i)};
  }
  positions_owner_ = p;
}

void SelectSystem::refresh_bitmap(PeerId p, std::size_t u_idx) {
  const auto nbrs = graph_->neighbors(p);
  const PeerId u = nbrs[u_idx];
  auto& info = state_[p].friends[u_idx];
  // The bitmap reads only u's link tables, which link_version covers.
  const std::uint64_t version = overlay_.link_version(u);
  const bool current = info.links_seen == version;
  if (current && !check::enabled(check::Level::kFull)) return;
  load_positions(p);
  auto& fresh = bitmap_scratch_;
  fresh.resize(nbrs.size());
  fresh.clear_all();
  fresh.set(u_idx);  // self-coverage (see constructor comment)
  // bitmap(u, v) = 1 iff (u, v) ∈ R_u, for v ∈ C_p (paper Sec. III-D).
  auto mark = [&](PeerId v) {
    if (positions_[v].owner == p) fresh.set(positions_[v].at);
  };
  for (const PeerId v : overlay_.out_links(u)) mark(v);
  for (const PeerId v : overlay_.in_links(u)) mark(v);
  if (current) {
    check::enforce(check::validate_gated_skip(
        "select.bitmap.gated_skip", p, fresh.hamming_distance(info.bitmap)));
    return;
  }
  info.links_seen = version;
  if (fresh != info.bitmap) {
    info.bitmap = fresh;
    state_[p].bitmaps_changed = true;
  }
}

double SelectSystem::evaluate_position(PeerId p) {
  const auto& st = state_[p];
  const auto nbrs = graph_->neighbors(p);
  // Top-2 known strengths (Alg. 2 lines 2-3); ties by peer id for
  // determinism.
  std::size_t best = static_cast<std::size_t>(-1);
  std::size_t second = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < st.friends.size(); ++i) {
    if (st.friends[i].strength < 0.0) continue;
    if (!overlay_.joined(nbrs[i])) continue;
    if (best == static_cast<std::size_t>(-1) ||
        st.friends[i].strength > st.friends[best].strength) {
      second = best;
      best = i;
    } else if (second == static_cast<std::size_t>(-1) ||
               st.friends[i].strength > st.friends[second].strength) {
      second = i;
    }
  }
  if (best == static_cast<std::size_t>(-1)) return 0.0;

  // Settled: already adjacent to the strongest tie. Stopping here keeps
  // communities as distinct clumps instead of letting repeated averaging
  // collapse every peer onto one point.
  if (net::ring_distance(overlay_.id(p), overlay_.id(nbrs[best])) <
      params_.settle_radius) {
    return 0.0;
  }

  net::OverlayId target;
  if (second != static_cast<std::size_t>(-1)) {
    // Alg. 2 line 4: centroid of the two strongest ties' positions.
    target = net::ring_midpoint(overlay_.id(nbrs[best]),
                                overlay_.id(nbrs[second]));
  } else {
    // Only one tie known yet: drift halfway toward it.
    target = net::ring_midpoint(overlay_.id(p), overlay_.id(nbrs[best]));
  }

  const net::OverlayId cur = overlay_.id(p);
  // Signed shortest-arc displacement toward the target, damped.
  const double cw = net::clockwise_distance(cur, target);
  const double delta = cw <= 0.5 ? cw : cw - 1.0;
  const double step = delta * params_.id_damping;
  const net::OverlayId next = net::advance(cur, step);
  if (check::enabled(check::Level::kFull)) {
    // Alg. 2 geometry: the damped move heads toward the centroid of the two
    // strongest ties and never overshoots.
    check::enforce(
        check::validate_id_step(cur, target, next, params_.id_damping));
  }
  overlay_.set_id(p, next);
  return std::fabs(step);
}

bool SelectSystem::try_connect(PeerId p, PeerId u) {
  if (p == u || overlay_.linked(p, u)) return false;
  if (!overlay_.joined(p) || !overlay_.joined(u)) return false;
  if (overlay_.in_degree(u) >= k_) {
    // K incoming links reached: admit only with better bandwidth than the
    // weakest current in-link, which gets evicted (Sec. III-D).
    PeerId weakest = overlay::kInvalidPeer;
    double weakest_bw = std::numeric_limits<double>::infinity();
    for (const PeerId w : overlay_.in_links(u)) {
      const double bw = net_->uplink_bps(w);
      if (bw < weakest_bw) {
        weakest_bw = bw;
        weakest = w;
      }
    }
    if (net_->uplink_bps(p) <= weakest_bw) return false;
    overlay_.remove_long_link(weakest, u);
  }
  const bool linked = overlay_.add_long_link(p, u);
  if (linked) link_establishments_counter().add(1);
  return linked;
}

std::size_t SelectSystem::create_links(PeerId p) {
  auto& st = state_[p];
  if (!st.index.has_value()) return 0;
  std::size_t changes = 0;

  if (!params_.enable_lsh_selection) {
    // Ablation: link to K random joined friends instead of LSH buckets.
    const auto nbrs = graph_->neighbors(p);
    std::size_t have = overlay_.out_degree(p);
    for (int attempts = 0; attempts < 32 && have < k_; ++attempts) {
      const PeerId f = nbrs[st.rng.below(nbrs.size())];
      if (overlay_.joined(f) && try_connect(p, f)) {
        ++have;
        ++changes;
      }
    }
    return changes;
  }

  // relink(p) is a pure function of what links_current(p) watches: with
  // none of it moved, it would rebuild the same index and change nothing.
  const bool current = links_current(p);
  if (!current || check::enabled(check::Level::kFull)) {
    changes = relink(p);
    if (current) {
      check::enforce(
          check::validate_gated_skip("select.links.gated_skip", p, changes));
    }
  }
  if (check::enabled()) {
    // Alg. 5 bucket bound |H| = K is O(1); the full index walk and the
    // link-budget check run only at full level.
    check::enforce(check::validate_lsh_bucket_bound(*st.index, k_));
    if (check::enabled(check::Level::kFull)) {
      check::enforce(check::validate_lsh_index(
          *st.index, k_, [&st](std::uint32_t at) -> const DynamicBitset& {
            return st.friends[at].bitmap;
          }));
      check::enforce(check::validate_link_budget(overlay_, p, k_));
    }
  }
  return changes;
}

bool SelectSystem::links_current(PeerId p) const {
  const auto& st = state_[p];
  if (st.bitmaps_changed) return false;
  auto moved = [this, &st](PeerId q) {
    return overlay_.link_version(q) > st.relinked_at;
  };
  const auto nbrs = graph_->neighbors(p);
  return !moved(p) && std::none_of(nbrs.begin(), nbrs.end(), moved);
}

namespace {

// relink()'s per-position marks.
constexpr std::uint8_t kOut = 1;       ///< p links to the friend at entry
constexpr std::uint8_t kFinal = 2;     ///< in the final link set
constexpr std::uint8_t kRejected = 4;  ///< refused by its in-link cap

}  // namespace

std::size_t SelectSystem::relink(PeerId p) {
  auto& st = state_[p];
  const auto nbrs = graph_->neighbors(p);
  std::size_t changes = 0;
  st.relinked_at = overlay_.version_clock();
  st.bitmaps_changed = false;

  // Alg. 5 lines 2-4: index the neighbourhood bitmaps into |H| = K buckets,
  // reading each joined friend's coverage (bitmap popcount) once.
  st.index->clear();
  coverage_.resize(nbrs.size());
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (!overlay_.joined(nbrs[i])) continue;
    const auto& bitmap = st.friends[i].bitmap;
    coverage_[i] = static_cast<std::uint32_t>(bitmap.count());
    st.index->append(nbrs[i], static_cast<std::uint32_t>(i), bitmap);
  }
  // p's out-links, marked by friend position. relink only adds out-links
  // until the final sweep, so this one copy serves every step.
  outs_.assign(overlay_.out_links(p).begin(), overlay_.out_links(p).end());
  marks_.assign(nbrs.size(), 0);
  load_positions(p);
  for (const PeerId v : outs_) {
    if (positions_[v].owner == p) marks_[positions_[v].at] |= kOut;
  }

  // Alg. 5 lines 5-18: the primary pick is one peer per non-empty bucket
  // (similar-connectivity friends are redundant; one covers the zone).
  // Because the peer maintains K long-range links (Sec. III-D), remaining
  // budget is topped up with the runner-ups of each bucket, round-robin, in
  // picker order — so the desired set is deterministic given the index.
  ranked_.clear();
  ranked_end_.clear();
  for (std::size_t h = 0; h < st.index->num_buckets(); ++h) {
    const auto& bucket = st.index->bucket(h);
    if (bucket.empty()) continue;
    const std::size_t begin = ranked_.size();
    rank_bucket(p, bucket);
    ranked_end_.push_back(ranked_.size());
    // Sticky primaries: a bucket whose zone is already covered by one of
    // our existing links keeps that link as its representative; only
    // uncovered buckets take their picker-ranked best. Re-picking every
    // bucket every round would thrash — friendship bitmaps keep evolving on
    // high-degree neighbourhoods, so bucket contents never freeze.
    for (std::size_t r = begin; r < ranked_.size(); ++r) {
      if ((marks_[ranked_[r]] & kOut) != 0) {
        std::swap(ranked_[begin], ranked_[r]);
        break;
      }
    }
  }
  const std::size_t primaries = ranked_end_.size();
  priority_.clear();
  for (std::size_t depth = 0; priority_.size() < ranked_.size(); ++depth) {
    std::size_t begin = 0;
    for (const std::size_t end : ranked_end_) {
      if (begin + depth < end) priority_.push_back(ranked_[begin + depth]);
      begin = end;
    }
  }

  // The Alg. 5 invariant: the primary pick of every non-empty bucket is
  // linked (one representative per connectivity zone). Remaining budget is
  // filled with runner-ups, *with hysteresis*: existing links are kept in
  // preference to equal-tier newcomers. Without hysteresis the system
  // thrashes forever — link changes alter the friendship bitmaps other
  // peers gossip about, which re-ranks their buckets and changes their
  // links in turn. Links outside the final set are dropped (Alg. 5 lines
  // 12-16, generalized to budget enforcement).
  std::size_t final_size = 0;
  auto keep = [&](std::uint32_t at) {
    marks_[at] |= kFinal;
    ++final_size;
  };
  // 1. Primaries (first `primaries` entries of the priority list).
  for (std::size_t r = 0; r < primaries && final_size < k_; ++r) {
    const std::uint32_t at = priority_[r];
    if ((marks_[at] & kFinal) != 0) continue;
    if ((marks_[at] & kOut) != 0) {
      keep(at);
    } else if (try_connect(p, nbrs[at])) {
      keep(at);
      ++changes;
    }
  }
  // 2. Hysteresis: keep existing links that are still candidates, best
  //    first.
  for (const std::uint32_t at : priority_) {
    if (final_size >= k_) break;
    if ((marks_[at] & (kFinal | kOut)) == kOut) keep(at);
  }
  // 3. Top up the remaining budget greedily by *marginal coverage*: pick
  //    the unlinked friend whose bitmap covers the most friends not yet
  //    reachable through the current link set ("establish connections with
  //    the maximum number of the social neighbourhood", Sec. III-A). This
  //    is what makes high-degree neighbourhoods reachable in 2 hops with
  //    only K links.
  if (final_size < k_) {
    covered_.resize(nbrs.size());
    covered_.clear_all();
    auto mark_covered = [&](std::size_t at) {
      covered_ |= st.friends[at].bitmap;
      covered_.set(at);
    };
    for (const std::uint32_t at : priority_) {
      if ((marks_[at] & kFinal) != 0) mark_covered(at);
    }
    while (final_size < k_) {
      std::size_t best = priority_.size();
      std::size_t best_gain = 0;
      for (std::size_t r = 0; r < priority_.size(); ++r) {
        const std::uint32_t at = priority_[r];
        if ((marks_[at] & (kFinal | kRejected)) != 0) continue;
        // |bitmap \ covered| = |bitmap| - |bitmap ∩ covered|.
        const std::size_t gain =
            coverage_[at] - st.friends[at].bitmap.intersection_count(covered_) +
            (covered_.test(at) ? 0 : 1);
        if (gain > best_gain) {
          best_gain = gain;
          best = r;
        }
      }
      if (best == priority_.size()) break;
      const std::uint32_t at = priority_[best];
      if (try_connect(p, nbrs[at])) {
        keep(at);
        mark_covered(at);
        ++changes;
      } else {
        marks_[at] |= kRejected;
      }
    }
  }
  for (const PeerId v : outs_) {
    const bool kept =
        positions_[v].owner == p && (marks_[positions_[v].at] & kFinal) != 0;
    if (!kept && overlay_.remove_long_link(p, v)) ++changes;
  }
  return changes;
}

void SelectSystem::rank_bucket(
    PeerId p, const std::vector<lsh::LshIndex::Entry>& bucket) {
  // Alg. 6 ordering: social coverage (bitmap popcount) descending, friend
  // position as deterministic tiebreak (the friend list is sorted, so that
  // is peer id order); the bandwidth rule swaps the top two when the
  // runner-up has a strictly faster uplink. The Kourtellis variant adds a
  // degree-centrality bias to the coverage, steering long links toward hub
  // peers that shortcut many dissemination paths.
  const auto nbrs = graph_->neighbors(p);
  const double centrality = params_.centrality_weight;
  auto score = [&](std::uint32_t at) {
    double s = static_cast<double>(coverage_[at]);
    if (centrality > 0.0) {
      s += centrality * static_cast<double>(graph_->degree(nbrs[at]));
    }
    return s;
  };
  const auto first = static_cast<std::ptrdiff_t>(ranked_.size());
  for (const auto& e : bucket) ranked_.push_back(e.position);
  const auto begin = ranked_.begin() + first;
  std::sort(begin, ranked_.end(), [&score](std::uint32_t a, std::uint32_t b) {
    const double sa = score(a);
    const double sb = score(b);
    if (sa != sb) return sa > sb;
    return a < b;
  });
  if (bucket.size() > 1 &&
      net_->uplink_bps(nbrs[begin[0]]) < net_->uplink_bps(nbrs[begin[1]])) {
    std::swap(begin[0], begin[1]);
  }
}

void SelectSystem::set_peer_online(PeerId p, bool online) {
  overlay_.set_online(p, online);
}

void SelectSystem::maintenance_round() {
  SEL_TRACE_SCOPE("select.maintenance");
  const std::size_t n = graph_->num_nodes();
  // Peers poll their routing-table friends for their state (Sec. III-F);
  // in the simulation every peer's availability gets one CMA sample per
  // maintenance round.
  for (PeerId p = 0; p < n; ++p) {
    if (!overlay_.joined(p)) continue;
    cma_[p].update(overlay_.online(p));
  }

  for (PeerId p = 0; p < n; ++p) {
    if (!overlay_.joined(p) || !overlay_.online(p)) continue;
    auto& st = state_[p];
    // Copy: replacements mutate the link set.
    const std::vector<PeerId> outs(overlay_.out_links(p).begin(),
                                   overlay_.out_links(p).end());
    for (const PeerId u : outs) {
      if (overlay_.online(u)) continue;
      if (params_.enable_cma_recovery &&
          cma_[u].value() >= params_.cma_keep_threshold) {
        // Good long-term behaviour: transient failure, keep the link and
        // avoid a chain of reassignments (Sec. III-F).
        continue;
      }
      // The peer is chronically offline: drop the dead link, then try to
      // fill the slot with a same-bucket peer from the LSH index.
      overlay_.remove_long_link(p, u);
      link_reassignments_counter().add(1);
      if (!st.index.has_value()) continue;
      PeerId replacement = overlay::kInvalidPeer;
      for (const PeerId cand : st.index->same_bucket_peers(u)) {
        if (overlay_.online(cand) && !overlay_.linked(p, cand)) {
          replacement = cand;
          break;
        }
      }
      if (replacement == overlay::kInvalidPeer) {
        // Bucket exhausted: any online, unlinked friend keeps delivery
        // alive.
        for (const PeerId cand : graph_->neighbors(p)) {
          if (overlay_.joined(cand) && overlay_.online(cand) &&
              !overlay_.linked(p, cand)) {
            replacement = cand;
            break;
          }
        }
      }
      if (replacement != overlay::kInvalidPeer) {
        try_connect(p, replacement);
      }
      lookahead_.refresh(p);
    }
  }
  // Ring repair: short-range links skip offline peers.
  overlay_.rebuild_ring(/*online_only=*/true);
  if (obs::enabled()) {
    // Maintenance points carry only counter deltas (link repairs, CMA
    // recoveries) — no movement gauge, so they never touch stability
    // tracking in the sampler.
    obs::RoundSampler::global().sample("select.maintenance",
                                       maintenance_rounds_++);
  }
}

double SelectSystem::known_strength(PeerId p, PeerId friend_peer) const {
  return state_[p].friends[friend_index(p, friend_peer)].strength;
}

}  // namespace sel::core

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
/// are relaxed sharded adds, no-ops under SEL_OBS=off.
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
      lookahead_(overlay_) {
  // SELECT routes with gossip-maintained L_p snapshots, not live global
  // knowledge, and uses the deeper lookahead its friends' friendship
  // bitmaps afford (Sec. III-E).
  route_options_.lookahead_cache = &lookahead_;
  route_options_.lookahead_depth = 2;
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
      PeerId partner = overlay::kInvalidPeer;
      for (int attempts = 0; attempts < 8; ++attempts) {
        const PeerId candidate = nbrs[st.rng.below(nbrs.size())];
        if (overlay_.joined(candidate) && overlay_.online(candidate)) {
          partner = candidate;
          break;
        }
      }
      if (partner != overlay::kInvalidPeer) {
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
    // Round telemetry: the gossip/relink peer loop is the compute phase; the
    // ring rebuild is the delivery/synchronization phase. One gossip
    // exchange moves two routing tables.
    const std::uint64_t tel_round = telemetry_round_++;
    const auto t_end = obs::wall_now();
    obs::MetricsRegistry::global().add_round(obs::RoundSample{
        "select.round", tel_round, obs::ms_between(t_start, t_compute),
        obs::ms_between(t_compute, t_end),
        static_cast<std::uint64_t>(exchanges * 2)});
    // Phase timeline for the Perfetto exporter.
    auto& buf = obs::TraceBuffer::global();
    buf.add({"select.round", "compute", tel_round, obs::wall_us(t_start),
             obs::wall_us(t_compute) - obs::wall_us(t_start)});
    buf.add({"select.round", "deliver", tel_round, obs::wall_us(t_compute),
             obs::wall_us(t_end) - obs::wall_us(t_compute)});
    // Per-round time-series point: counter deltas plus protocol gauges.
    // `id_movement` also drives the rounds-to-stable-ids metric.
    obs::RoundSampler::global().sample(
        "select.round", tel_round,
        {{"id_movement", movement},
         {"relocations", static_cast<double>(relocations)},
         {"link_changes", static_cast<double>(link_changes)},
         {"exchanges", static_cast<double>(exchanges)}});
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

void SelectSystem::exchange(PeerId p, PeerId u) {
  gossip_exchanges_counter().add(1);
  // Both sides learn the mutual-friend count (Alg. 4 line 3) and each
  // other's routing table (friendship bitmaps, Alg. 4 lines 5-8). The count
  // is symmetric and friend pairs repeat across rounds, so it comes from
  // the tie-strength cache rather than a fresh adjacency merge.
  const auto common =
      static_cast<double>(tie_index_.common_neighbors(p, u));
  const std::size_t u_at_p = friend_index(p, u);
  const std::size_t p_at_u = friend_index(u, p);
  auto& fp = state_[p].friends[u_at_p];
  fp.strength = graph_->degree(p) == 0
                    ? 0.0
                    : common / static_cast<double>(graph_->degree(p));
  auto& fu = state_[u].friends[p_at_u];
  fu.strength = graph_->degree(u) == 0
                    ? 0.0
                    : common / static_cast<double>(graph_->degree(u));
  refresh_bitmap(p, u_at_p);
  refresh_bitmap(u, p_at_u);
  // Alg. 4 lines 5-8: the exchanged routing tables also refresh what each
  // side knows about the overlay connections of *mutual* friends (u is
  // socially connected to them and relays their link state). The merge walk
  // yields w's position in both friend lists.
  const auto np = graph_->neighbors(p);
  const auto nu2 = graph_->neighbors(u);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < np.size() && j < nu2.size()) {
    if (np[i] < nu2[j]) {
      ++i;
    } else if (np[i] > nu2[j]) {
      ++j;
    } else {
      const PeerId w = np[i];
      if (overlay_.joined(w)) {
        refresh_bitmap(p, i);
        refresh_bitmap(u, j);
        lookahead_.refresh(w);
      }
      ++i;
      ++j;
    }
  }
  // The exchanged routing tables refresh the lookahead snapshots L_p too.
  lookahead_.refresh(p);
  lookahead_.refresh(u);
}

void SelectSystem::refresh_bitmap(PeerId p, std::size_t u_idx) {
  const auto nbrs = graph_->neighbors(p);
  const PeerId u = nbrs[u_idx];
  auto& info = state_[p].friends[u_idx];
  // The bitmap reads only u's link tables, which link_version covers.
  const std::uint64_t version = overlay_.link_version(u);
  const bool current = info.links_seen == version;
  if (current && !check::enabled(check::Level::kFull)) return;
  auto& fresh = bitmap_scratch_;
  fresh.resize(nbrs.size());
  fresh.clear_all();
  fresh.set(u_idx);  // self-coverage (see constructor comment)
  // bitmap(u, v) = 1 iff (u, v) ∈ R_u, for v ∈ C_p (paper Sec. III-D).
  auto mark = [&](PeerId v) {
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
    if (it != nbrs.end() && *it == v) {
      fresh.set(static_cast<std::size_t>(it - nbrs.begin()));
    }
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

double SelectSystem::picker_score(const lsh::LshIndex::Entry& e) const {
  // Alg. 6 base score: social coverage (bitmap popcount). The Kourtellis
  // variant additionally weights candidates by degree centrality, steering
  // long links toward hub peers that shortcut many dissemination paths.
  double s = static_cast<double>(e.bitmap.count());
  if (params_.centrality_weight > 0.0) {
    s += params_.centrality_weight * static_cast<double>(graph_->degree(e.peer));
  }
  return s;
}

PeerId SelectSystem::pick_from_bucket(
    const std::vector<lsh::LshIndex::Entry>& bucket) const {
  SEL_EXPECTS(!bucket.empty());
  return rank_bucket(bucket).front();
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
      check::enforce(check::validate_lsh_index(*st.index, k_));
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

std::size_t SelectSystem::relink(PeerId p) {
  auto& st = state_[p];
  const auto nbrs = graph_->neighbors(p);
  std::size_t changes = 0;
  st.relinked_at = overlay_.version_clock();
  st.bitmaps_changed = false;

  // Alg. 5 lines 2-4: index the neighbourhood bitmaps into |H| = K buckets.
  st.index->clear();
  for (std::size_t i = 0; i < st.friends.size(); ++i) {
    const PeerId f = nbrs[i];
    if (!overlay_.joined(f)) continue;
    st.index->append(f, st.friends[i].bitmap);
  }

  // Alg. 5 lines 5-18: the primary pick is one peer per non-empty bucket
  // (similar-connectivity friends are redundant; one covers the zone).
  // Because the peer maintains K long-range links (Sec. III-D), remaining
  // budget is topped up with the runner-ups of each bucket, round-robin, in
  // picker order — so the desired set is deterministic given the index.
  std::vector<std::vector<PeerId>> ranked;  // per bucket, picker order
  for (std::size_t h = 0; h < st.index->num_buckets(); ++h) {
    const auto& bucket = st.index->bucket(h);
    if (bucket.empty()) continue;
    ranked.push_back(rank_bucket(bucket));
  }
  const std::vector<PeerId> outs_snapshot(overlay_.out_links(p).begin(),
                                          overlay_.out_links(p).end());
  auto is_linked_out = [&outs_snapshot](PeerId q) {
    return std::find(outs_snapshot.begin(), outs_snapshot.end(), q) !=
           outs_snapshot.end();
  };
  // Sticky primaries: a bucket whose zone is already covered by one of our
  // existing links keeps that link as its representative; only uncovered
  // buckets take their picker-ranked best. Re-picking every bucket every
  // round would thrash — friendship bitmaps keep evolving on high-degree
  // neighbourhoods, so bucket contents never freeze.
  for (auto& bucket : ranked) {
    const auto linked_it =
        std::find_if(bucket.begin(), bucket.end(), is_linked_out);
    if (linked_it != bucket.end() && linked_it != bucket.begin()) {
      std::iter_swap(bucket.begin(), linked_it);
    }
  }
  std::vector<PeerId> priority;
  priority.reserve(st.friends.size());
  std::size_t primaries = 0;
  for (std::size_t depth = 0;; ++depth) {
    bool any = false;
    for (const auto& bucket : ranked) {
      if (depth < bucket.size()) {
        any = true;
        priority.push_back(bucket[depth]);
        if (depth == 0) ++primaries;
      }
    }
    if (!any) break;
  }

  // The Alg. 5 invariant: the primary pick of every non-empty bucket is
  // linked (one representative per connectivity zone). Remaining budget is
  // filled with runner-ups, *with hysteresis*: existing links are kept in
  // preference to equal-tier newcomers. Without hysteresis the system
  // thrashes forever — link changes alter the friendship bitmaps other
  // peers gossip about, which re-ranks their buckets and changes their
  // links in turn. Links outside the final set are dropped (Alg. 5 lines
  // 12-16, generalized to budget enforcement).
  const std::vector<PeerId> outs(overlay_.out_links(p).begin(),
                                 overlay_.out_links(p).end());
  std::vector<PeerId> final_set;
  final_set.reserve(k_);
  auto in_final = [&final_set](PeerId q) {
    return std::find(final_set.begin(), final_set.end(), q) !=
           final_set.end();
  };
  // 1. Primaries (first `primaries` entries of the priority list).
  for (std::size_t i = 0; i < primaries && final_set.size() < k_; ++i) {
    const PeerId cand = priority[i];
    if (in_final(cand)) continue;
    const bool existing =
        std::find(outs.begin(), outs.end(), cand) != outs.end();
    if (existing) {
      final_set.push_back(cand);
    } else if (try_connect(p, cand)) {
      final_set.push_back(cand);
      ++changes;
    }
  }
  // 2. Hysteresis: keep existing links that are still candidates, best
  //    first.
  for (const PeerId cand : priority) {
    if (final_set.size() >= k_) break;
    if (in_final(cand)) continue;
    if (std::find(outs.begin(), outs.end(), cand) != outs.end()) {
      final_set.push_back(cand);
    }
  }
  // 3. Top up the remaining budget greedily by *marginal coverage*: pick
  //    the unlinked friend whose bitmap covers the most friends not yet
  //    reachable through the current link set ("establish connections with
  //    the maximum number of the social neighbourhood", Sec. III-A). This
  //    is what makes high-degree neighbourhoods reachable in 2 hops with
  //    only K links.
  if (final_set.size() < k_) {
    // Friend positions of the candidates, looked up once rather than on
    // every pass of the greedy loop.
    std::vector<std::size_t> at;
    at.reserve(priority.size());
    for (const PeerId cand : priority) at.push_back(friend_index(p, cand));
    DynamicBitset covered(st.friends.size());
    auto mark_covered = [&](std::size_t idx) {
      covered |= st.friends[idx].bitmap;
      covered.set(idx);
    };
    for (const PeerId q : final_set) mark_covered(friend_index(p, q));
    std::vector<PeerId> excluded;  // rejected by their incoming cap
    auto skip = [&excluded](PeerId q) {
      return std::find(excluded.begin(), excluded.end(), q) !=
             excluded.end();
    };
    while (final_set.size() < k_) {
      std::size_t best = priority.size();
      std::size_t best_gain = 0;
      for (std::size_t r = 0; r < priority.size(); ++r) {
        if (in_final(priority[r]) || skip(priority[r])) continue;
        // |bitmap \ covered| = |bitmap| - |bitmap ∩ covered|.
        const auto& bm = st.friends[at[r]].bitmap;
        const std::size_t gain = bm.count() -
                                 bm.intersection_count(covered) +
                                 (covered.test(at[r]) ? 0 : 1);
        if (gain > best_gain) {
          best_gain = gain;
          best = r;
        }
      }
      if (best == priority.size()) break;
      const PeerId best_cand = priority[best];
      if (try_connect(p, best_cand)) {
        final_set.push_back(best_cand);
        mark_covered(at[best]);
        ++changes;
      } else {
        excluded.push_back(best_cand);
      }
    }
  }
  for (const PeerId v : outs) {
    if (!in_final(v)) {
      if (overlay_.remove_long_link(p, v)) ++changes;
    }
  }
  return changes;
}

std::vector<PeerId> SelectSystem::rank_bucket(
    const std::vector<lsh::LshIndex::Entry>& bucket) const {
  // Alg. 6 ordering: social coverage (bitmap popcount) descending, peer id
  // as deterministic tiebreak; the bandwidth rule swaps the top two when
  // the runner-up has a strictly faster uplink.
  std::vector<PeerId> order;
  order.reserve(bucket.size());
  std::vector<const lsh::LshIndex::Entry*> sorted;
  sorted.reserve(bucket.size());
  for (const auto& e : bucket) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [this](const auto* a, const auto* b) {
              const double ca = picker_score(*a);
              const double cb = picker_score(*b);
              if (ca != cb) return ca > cb;
              return a->peer < b->peer;
            });
  if (sorted.size() > 1 &&
      net_->uplink_bps(sorted[0]->peer) < net_->uplink_bps(sorted[1]->peer)) {
    std::swap(sorted[0], sorted[1]);
  }
  for (const auto* e : sorted) order.push_back(e->peer);
  return order;
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

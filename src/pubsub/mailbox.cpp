#include "pubsub/mailbox.hpp"

#include <algorithm>

#include "check/mailbox_checks.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "select/cma.hpp"

namespace sel::pubsub {

using overlay::PeerId;

namespace {

// Mailbox telemetry (naming: `mailbox.*`), pre-registered at construction
// so chaos reports carry a seed-independent schema (a counter that never
// fires reports 0 instead of omitting the key — CI exact-match gates rely
// on it, the same pattern the fault.* family follows).
obs::Counter& replicated_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("mailbox.replicated");
  return c;
}
obs::Counter& store_attempts_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("mailbox.store_attempts");
  return c;
}
obs::Counter& acks_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("mailbox.acks");
  return c;
}
obs::Counter& duplicate_acks_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "mailbox.duplicate_acks_suppressed");
  return c;
}
obs::Counter& retries_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("mailbox.retries");
  return c;
}
obs::Counter& replacements_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("mailbox.replacements");
  return c;
}
obs::Counter& quorum_writes_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("mailbox.quorum_writes");
  return c;
}
obs::Counter& quorum_degraded_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("mailbox.quorum_degraded");
  return c;
}
obs::Counter& handoffs_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("mailbox.handoffs");
  return c;
}
obs::Counter& replays_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("mailbox.replays");
  return c;
}
obs::Counter& replay_lost_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("mailbox.replay_lost");
  return c;
}
obs::Counter& superseded_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("mailbox.superseded");
  return c;
}
obs::Gauge& pending_gauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::global().gauge("mailbox.pending_entries");
  return g;
}

// Placement and jitter draw salts (the fault plane owns 0x5e1d00xx).
constexpr std::uint64_t kPlacementSalt = 0x3a11b0c501;
constexpr std::uint64_t kJitterSalt = 0x3a11b0c502;

// Store/ack resend ladder: the ack timeout doubles per failed attempt and is
// stretched by up to kJitter of itself.
constexpr double kBackoff = 2.0;
constexpr double kJitter = 0.2;

/// The subscriber's half of the rendezvous hash, shared by every candidate.
std::uint64_t placement_key(std::uint64_t seed, PeerId subscriber) {
  return splitmix64(splitmix64(seed ^ splitmix64(kPlacementSalt)) ^
                    splitmix64(subscriber));
}

/// Pure rendezvous draw u01(seed, subscriber, candidate) in [0, 1).
double placement_draw(std::uint64_t key, PeerId p) {
  return static_cast<double>(splitmix64(key ^ splitmix64(p)) >> 11) *
         0x1.0p-53;
}

}  // namespace

MailboxManager::MailboxManager(runtime::EventEngine& queue,
                               const overlay::Overlay& overlay,
                               const net::NetworkModel& net,
                               MailboxPolicy policy, std::uint64_t seed)
    : queue_(&queue),
      overlay_(&overlay),
      net_(&net),
      policy_(policy),
      seed_(seed) {
  SEL_EXPECTS(policy.replicas >= 1);
  SEL_EXPECTS(policy.max_attempts >= 1);
  replicated_counter();
  store_attempts_counter();
  acks_counter();
  duplicate_acks_counter();
  retries_counter();
  replacements_counter();
  quorum_writes_counter();
  quorum_degraded_counter();
  handoffs_counter();
  replays_counter();
  replay_lost_counter();
  superseded_counter();
  pending_gauge();
}

double MailboxManager::availability_of(PeerId p) const {
  return availability_ ? availability_(p) : 1.0;
}

bool MailboxManager::peer_dead(PeerId p) const {
  return fault_ != nullptr && fault_->crashed(p);
}

bool MailboxManager::scores_bounded() const {
  // placement_score(a, u, bias) <= placement_score_bound(u) needs a weight
  // of at most 1: a CMA <= 1 and a non-negative bias (NaN fails both).
  if (!(policy_.bias >= 0.0)) return false;
  if (!availability_) return true;
  const std::size_t n = overlay_->num_peers();
  for (PeerId p = 0; p < n; ++p) {
    if (!(availability_(p) <= 1.0)) return false;
  }
  return true;
}

std::span<const PeerId> MailboxManager::draw_order(PeerId subscriber,
                                                   std::uint64_t key) const {
  const std::size_t n = overlay_->num_peers();
  if (draw_slot_.empty()) draw_slot_.assign(n, kNoDrawOrder);
  const std::size_t depth = std::min(kDrawOrderDepth, n);
  if (draw_slot_[subscriber] == kNoDrawOrder) {
    struct Drawn {
      double u;
      PeerId peer;
    };
    std::vector<Drawn> all(n);
    for (PeerId p = 0; p < n; ++p) all[p] = {placement_draw(key, p), p};
    std::partial_sort(all.begin(), all.begin() + depth, all.end(),
                      [](const Drawn& a, const Drawn& b) {
                        if (a.u != b.u) return a.u > b.u;
                        return a.peer < b.peer;
                      });
    draw_slot_[subscriber] = static_cast<std::uint32_t>(draws_.size());
    for (std::size_t i = 0; i < depth; ++i) draws_.push_back(all[i].peer);
  }
  return {draws_.data() + draw_slot_[subscriber], depth};
}

std::vector<PeerId> MailboxManager::placement_ranking(
    PeerId subscriber) const {
  // Two ranked sections: the subscriber's overlay neighborhood (replicas a
  // returning peer reaches cheaply), then a bounded rendezvous fallback
  // pool over everyone else. Within each section the CMA-weighted
  // rendezvous score orders candidates; ties break on peer id so the sort
  // is total.
  struct Scored {
    double score;
    PeerId peer;
  };
  const auto by_score = [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.peer < b.peer;
  };
  const std::uint64_t key = placement_key(seed_, subscriber);

  std::vector<PeerId> near = overlay_->neighbors(subscriber);
  std::sort(near.begin(), near.end());
  near.erase(std::unique(near.begin(), near.end()), near.end());
  std::vector<Scored> neighborhood;
  for (const PeerId p : near) {
    if (p == subscriber || peer_dead(p)) continue;
    const double score = core::placement_score(
        availability_of(p), placement_draw(key, p), policy_.bias);
    neighborhood.push_back({score, p});
  }
  std::sort(neighborhood.begin(), neighborhood.end(), by_score);

  // The best `pool` of everyone else, kept as a heap whose front is the
  // worst entry.
  const std::size_t pool = policy_.fallback_pool;
  const std::size_t n = overlay_->num_peers();
  std::vector<Scored> fallback;
  fallback.reserve(std::min(pool, n));
  const auto offer = [&](const Scored& s) {
    if (fallback.size() < pool) {
      fallback.push_back(s);
      std::push_heap(fallback.begin(), fallback.end(), by_score);
    } else if (by_score(s, fallback.front())) {
      std::pop_heap(fallback.begin(), fallback.end(), by_score);
      fallback.back() = s;
      std::push_heap(fallback.begin(), fallback.end(), by_score);
    }
  };

  // Draw-order walk. When every score is at most placement_score_bound(u),
  // a full pool whose worst score beats the bound of the next draw cannot
  // gain any later draw: those have a smaller u, and the cached order
  // continues into the peers outside it. Running out of cached draws, or
  // an unbounded score, falls back to the scan below.
  bool exact = false;
  if (pool > 0 && scores_bounded()) {
    for (const PeerId p : draw_order(subscriber, key)) {
      const double u = placement_draw(key, p);
      if (fallback.size() == pool &&
          core::placement_score_bound(u) < fallback.front().score) {
        exact = true;
        break;
      }
      if (p == subscriber || peer_dead(p) ||
          std::binary_search(near.begin(), near.end(), p)) {
        continue;
      }
      offer({core::placement_score(availability_of(p), u, policy_.bias), p});
    }
  }

  // Full scan in ascending peer id. With a CMA <= 1 and a non-negative
  // bias a later peer loses every tie, so a draw whose bound cannot beat
  // the front is skipped unscored. The result equals a full sort cut to
  // `pool`.
  if (!exact) {
    fallback.clear();
    auto next_near = near.begin();
    for (PeerId p = 0; pool > 0 && p < n; ++p) {
      while (next_near != near.end() && *next_near < p) ++next_near;
      if (next_near != near.end() && *next_near == p) continue;
      if (p == subscriber || peer_dead(p)) continue;
      const double u = placement_draw(key, p);
      const double a = availability_of(p);
      if (fallback.size() == pool && a <= 1.0 && policy_.bias >= 0.0 &&
          core::placement_score_bound(u) <= fallback.front().score) {
        continue;
      }
      offer({core::placement_score(a, u, policy_.bias), p});
    }
  }
  std::sort_heap(fallback.begin(), fallback.end(), by_score);

  std::vector<PeerId> out;
  out.reserve(neighborhood.size() + fallback.size());
  for (const auto& s : neighborhood) out.push_back(s.peer);
  for (const auto& s : fallback) out.push_back(s.peer);
  return out;
}

PeerId MailboxManager::next_replica(Entry& entry) const {
  const auto used = [&](PeerId p) {
    if (p == entry.source) return true;
    for (const auto& r : entry.replicas) {
      if (r.peer == p) return true;
    }
    return false;
  };
  // Correlated-failure diversity: while alternatives exist, refuse
  // candidates sharing a failure domain with the subscriber, the source, or
  // an already-assigned replica — one crash burst must not erase the whole
  // replica set. The second pass relaxes only the domain constraint.
  const bool domains =
      fault_ != nullptr && fault_->num_domains() > 1;
  const auto domain_conflict = [&](PeerId p) {
    if (!domains) return false;
    const std::uint32_t d = fault_->failure_domain(p);
    if (d == fault_->failure_domain(entry.subscriber)) return true;
    if (d == fault_->failure_domain(entry.source)) return true;
    for (const auto& r : entry.replicas) {
      if (r.state != SlotState::kFailed &&
          d == fault_->failure_domain(r.peer)) {
        return true;
      }
    }
    return false;
  };
  for (const bool diverse : {true, false}) {
    for (const PeerId p : entry.ranking) {
      if (used(p) || peer_dead(p) || !overlay_->peer_online(p)) continue;
      if (diverse && domain_conflict(p)) continue;
      return p;
    }
    if (!domains) break;  // second pass would be identical
  }
  return overlay::kInvalidPeer;
}

void MailboxManager::replicate(MessageId msg, PeerId subscriber,
                               PeerId source, double t_s) {
  if (const auto it = by_subscriber_.find(subscriber);
      it != by_subscriber_.end()) {
    for (const std::size_t idx : it->second) {
      if (!entries_[idx].resolved && entries_[idx].msg == msg) return;
    }
  }
  const std::size_t idx = entries_.size();
  entries_.emplace_back();
  Entry& entry = entries_.back();
  entry.msg = msg;
  entry.subscriber = subscriber;
  entry.source = source;
  entry.ranking = placement_ranking(subscriber);
  by_subscriber_[subscriber].push_back(idx);
  ++pending_;
  ++stats_.replicated;
  replicated_counter().add(1);
  pending_gauge().set(static_cast<double>(pending_));

  for (std::size_t slot = 0; slot < policy_.replicas; ++slot) {
    const PeerId p = next_replica(entry);
    if (p == overlay::kInvalidPeer) break;
    entry.replicas.push_back(Replica{p, SlotState::kPending, false, 0});
  }
  if (entry.replicas.empty()) {
    entry.degraded = true;
    ++stats_.quorum_degraded;
    quorum_degraded_counter().add(1);
    settle(entry);
    return;
  }
  for (std::size_t slot = 0; slot < entry.replicas.size(); ++slot) {
    send_store(idx, slot, t_s);
  }
}

double MailboxManager::timeout_for(const Entry& entry, std::size_t slot,
                                   std::uint32_t attempt) const {
  double timeout = policy_.ack_timeout_s;
  for (std::uint32_t i = 0; i < attempt; ++i) timeout *= kBackoff;
  std::uint64_t h = splitmix64(seed_ ^ splitmix64(kJitterSalt));
  h = splitmix64(h ^ splitmix64(entry.msg));
  h = splitmix64(h ^ splitmix64((static_cast<std::uint64_t>(entry.subscriber)
                                 << 16) ^ slot));
  h = splitmix64(h ^ splitmix64(attempt));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return timeout * (1.0 + kJitter * u);
}

void MailboxManager::send_store(std::size_t entry_idx, std::size_t slot,
                                double t_s) {
  Entry& entry = entries_[entry_idx];
  Replica& rep = entry.replicas[slot];
  SEL_ASSERT(rep.state == SlotState::kPending);
  const std::uint32_t attempt = rep.attempts++;
  ++stats_.store_attempts;
  store_attempts_counter().add(1);
  // The store request is a real transfer (latency + payload/bandwidth);
  // the outcome is decided when it arrives at the acceptor.
  const double arrive_s =
      t_s + net_->transfer_time_s(entry.source, rep.peer,
                                  policy_.payload_bytes, /*concurrent=*/1);
  queue_->schedule(arrive_s, [this, entry_idx, slot, attempt,
                              t_s](double now) {
    store_arrived(entry_idx, slot, attempt, t_s, now);
  });
}

void MailboxManager::store_arrived(std::size_t entry_idx, std::size_t slot,
                                   std::uint32_t attempt, double send_s,
                                   double now_s) {
  Entry& entry = entries_[entry_idx];
  if (entry.resolved) return;
  Replica& rep = entry.replicas[slot];
  if (rep.state != SlotState::kPending || rep.attempts != attempt + 1) {
    return;  // stale event from a superseded attempt
  }
  // A dead or offline acceptor never acks: the sender's (lazy) timeout
  // detects it and re-runs the ladder.
  if (peer_dead(rep.peer) || !overlay_->peer_online(rep.peer)) {
    const double fail_at = std::max(now_s, send_s + timeout_for(entry, slot,
                                                                attempt));
    queue_->schedule(fail_at, [this, entry_idx, slot, attempt,
                               send_s](double now) {
      store_failed(entry_idx, slot, attempt, send_s, now);
    });
    return;
  }
  const fault::AckFate fate =
      fault_ != nullptr
          ? fault_->mailbox_ack(rep.peer, entry.msg, entry.subscriber,
                                attempt)
          : fault::AckFate{true, true, false};
  SEL_ASSERT(fate.acked);
  const PeerId acceptor = rep.peer;
  const double ack_latency = net_->latency_s(acceptor, entry.source);
  queue_->schedule(now_s + ack_latency,
                   [this, entry_idx, slot, acceptor,
                    stored = fate.stored](double now) {
                     ack_arrived(entry_idx, slot, acceptor, stored,
                                 /*duplicate=*/false, now);
                   });
  if (fate.duplicated) {
    queue_->schedule(now_s + 2.0 * ack_latency,
                     [this, entry_idx, slot, acceptor,
                      stored = fate.stored](double now) {
                       ack_arrived(entry_idx, slot, acceptor, stored,
                                   /*duplicate=*/true, now);
                     });
  }
}

void MailboxManager::ack_arrived(std::size_t entry_idx, std::size_t slot,
                                 PeerId acceptor, bool stored, bool duplicate,
                                 double now_s) {
  (void)now_s;
  (void)duplicate;
  Entry& entry = entries_[entry_idx];
  if (entry.resolved) return;
  Replica& rep = entry.replicas[slot];
  if (rep.peer != acceptor) return;  // slot was replaced; late ack
  if (rep.state == SlotState::kStored) {
    // Second ack for an already-acked slot — the byzantine duplicate-ack
    // channel. Distinct-acceptor counting makes it harmless.
    ++stats_.duplicate_acks;
    duplicate_acks_counter().add(1);
    return;
  }
  if (rep.state != SlotState::kPending) return;
  rep.state = SlotState::kStored;
  rep.stored_real = stored;
  ++entry.acks;
  ++stats_.acks;
  acks_counter().add(1);
  if (!entry.quorum_reached && entry.acks >= policy_.quorum()) {
    entry.quorum_reached = true;
    ++stats_.quorum_writes;
    quorum_writes_counter().add(1);
    settle(entry);
  }
}

void MailboxManager::store_failed(std::size_t entry_idx, std::size_t slot,
                                  std::uint32_t attempt, double send_s,
                                  double now_s) {
  (void)send_s;
  Entry& entry = entries_[entry_idx];
  if (entry.resolved) return;
  Replica& rep = entry.replicas[slot];
  if (rep.state != SlotState::kPending || rep.attempts != attempt + 1) {
    return;
  }
  if (rep.attempts < policy_.max_attempts) {
    ++stats_.retries;
    retries_counter().add(1);
    send_store(entry_idx, slot, now_s);
    return;
  }
  rep.state = SlotState::kFailed;
  replace_or_settle(entry_idx, slot, now_s);
}

void MailboxManager::replace_or_settle(std::size_t entry_idx,
                                       std::size_t slot, double t_s) {
  (void)slot;
  Entry& entry = entries_[entry_idx];
  const PeerId fresh = next_replica(entry);
  if (fresh != overlay::kInvalidPeer) {
    ++stats_.replacements;
    replacements_counter().add(1);
    entry.replicas.push_back(Replica{fresh, SlotState::kPending, false, 0});
    send_store(entry_idx, entry.replicas.size() - 1, t_s);
    return;
  }
  if (entry.quorum_reached) return;  // already settled at quorum
  for (const auto& r : entry.replicas) {
    if (r.state == SlotState::kPending) return;  // outcomes still in flight
  }
  if (!entry.degraded) {
    entry.degraded = true;
    ++stats_.quorum_degraded;
    quorum_degraded_counter().add(1);
    settle(entry);
  }
}

void MailboxManager::settle(Entry& entry) {
  if (check::enabled()) {
    check::enforce(check::validate_mailbox_quorum(
        entry.msg, entry.subscriber, entry.acks, policy_.quorum(),
        entry.replicas.size(), entry.quorum_reached, entry.degraded));
  }
}

void MailboxManager::resolve(Entry& entry) {
  SEL_ASSERT(!entry.resolved);
  entry.resolved = true;
  SEL_ASSERT(pending_ > 0);
  --pending_;
  pending_gauge().set(static_cast<double>(pending_));
}

std::vector<MessageId> MailboxManager::replay(PeerId subscriber,
                                              double t_s) {
  (void)t_s;
  std::vector<MessageId> out;
  const auto it = by_subscriber_.find(subscriber);
  if (it == by_subscriber_.end()) return out;
  for (const std::size_t idx : it->second) {
    Entry& entry = entries_[idx];
    if (entry.resolved) continue;
    // Serve from any live, genuinely stored replica, in slot order.
    // Byzantine holders withhold their copy; false-acked slots never
    // stored one — both are skipped, which is exactly why the quorum is
    // sized so that at least one ack is honest.
    bool served = false;
    for (const auto& rep : entry.replicas) {
      if (rep.state != SlotState::kStored || !rep.stored_real) continue;
      if (peer_dead(rep.peer)) continue;
      if (fault_ != nullptr && fault_->withholds_replay(rep.peer, entry.msg)) {
        continue;
      }
      served = true;
      break;
    }
    if (served) {
      out.push_back(entry.msg);
      ++stats_.replays;
      replays_counter().add(1);
    } else {
      ++stats_.replay_lost;
      replay_lost_counter().add(1);
    }
    resolve(entry);
  }
  by_subscriber_.erase(it);
  return out;
}

void MailboxManager::on_delivered(MessageId msg, PeerId subscriber) {
  const auto it = by_subscriber_.find(subscriber);
  if (it == by_subscriber_.end()) return;
  for (const std::size_t idx : it->second) {
    Entry& entry = entries_[idx];
    if (entry.resolved || entry.msg != msg) continue;
    ++stats_.superseded;
    superseded_counter().add(1);
    resolve(entry);
    return;
  }
}

void MailboxManager::on_peer_crashed(PeerId peer, double t_s) {
  // Insertion-order walk: deterministic, and cheap at the pending scales
  // the replay queue reaches (entries resolve on replay/delivery).
  for (std::size_t idx = 0; idx < entries_.size(); ++idx) {
    Entry& entry = entries_[idx];
    if (entry.resolved) continue;
    bool lost_slot = false;
    for (auto& rep : entry.replicas) {
      if (rep.peer == peer && rep.state != SlotState::kFailed) {
        rep.state = SlotState::kFailed;
        lost_slot = true;
      }
    }
    if (!lost_slot && entry.source != peer) continue;
    // Anti-entropy: hand the copy off from a surviving stored replica (or
    // the still-alive source) to a fresh candidate.
    PeerId handoff_source = overlay::kInvalidPeer;
    for (const auto& rep : entry.replicas) {
      if (rep.state == SlotState::kStored && rep.stored_real &&
          !peer_dead(rep.peer)) {
        handoff_source = rep.peer;
        break;
      }
    }
    if (handoff_source == overlay::kInvalidPeer && !peer_dead(entry.source)) {
      handoff_source = entry.source;
    }
    if (lost_slot && handoff_source != overlay::kInvalidPeer) {
      entry.source = handoff_source;
      const PeerId fresh = next_replica(entry);
      if (fresh != overlay::kInvalidPeer) {
        ++stats_.handoffs;
        handoffs_counter().add(1);
        entry.replicas.push_back(
            Replica{fresh, SlotState::kPending, false, 0});
        send_store(idx, entry.replicas.size() - 1, t_s);
      }
    }
    std::size_t live_stored = 0;
    bool any_pending = false;
    for (const auto& rep : entry.replicas) {
      if (rep.state == SlotState::kStored && rep.stored_real &&
          !peer_dead(rep.peer)) {
        ++live_stored;
      }
      if (rep.state == SlotState::kPending) any_pending = true;
    }
    if (live_stored == 0 && !any_pending &&
        handoff_source == overlay::kInvalidPeer && !entry.degraded) {
      // No surviving copy anywhere and nothing in flight: durability is
      // gone; record it instead of pretending.
      entry.degraded = true;
      ++stats_.quorum_degraded;
      quorum_degraded_counter().add(1);
    }
    if (check::enabled(check::Level::kFull)) {
      check::enforce(check::validate_mailbox_durability(
          entry.msg, entry.subscriber, live_stored + (any_pending ? 1 : 0),
          entry.quorum_reached, entry.degraded));
    }
  }
}

std::vector<PeerId> MailboxManager::replicas_of(MessageId msg,
                                                PeerId subscriber) const {
  std::vector<PeerId> out;
  const auto it = by_subscriber_.find(subscriber);
  if (it == by_subscriber_.end()) return out;
  for (const std::size_t idx : it->second) {
    const Entry& entry = entries_[idx];
    if (entry.resolved || entry.msg != msg) continue;
    for (const auto& rep : entry.replicas) {
      if (rep.state != SlotState::kFailed) out.push_back(rep.peer);
    }
    return out;
  }
  return out;
}

}  // namespace sel::pubsub

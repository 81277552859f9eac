// Replicated mailboxes — the durability tier of the message plane.
//
// Store-and-forward replay (engine.hpp) keeps exactly one copy of every
// undelivered message: on the publisher. A publisher crash mid-dissemination
// therefore silently loses notifications — the durability gap ROADMAP item 4
// calls out. This manager closes it: every message queued for an offline or
// unreachable subscriber is *replicated* to k mailbox peers, and replayed
// from whichever replica survives when the subscriber returns.
//
// Placement (DESIGN.md §17). Replica holders are chosen by CMA-weighted
// rendezvous hashing (core::placement_score): each candidate draws a pure
// hash u01(seed, subscriber, candidate) and ranks by u^(1/cma^bias), so
// long-term-available peers (paper Sec. III-F; "Towards Social Profile
// Based Overlays") win deterministically and the top-k set is stable under
// churn. Candidates come from the subscriber's overlay neighborhood first
// (ring + long links — replicas the returning subscriber can reach
// cheaply), then a bounded rendezvous fallback pool over the rest of the
// network. That pool is filled by walking a per-subscriber cache of the
// best draws until no later draw can enter it, or else by a bounded scan
// of every peer. Peers sharing a correlated-failure domain with the
// subscriber, the source, or an already-chosen replica are skipped while
// alternatives exist ("Socially-Aware DHTs for Decentralized OSNs":
// placement must be availability- *and* locality-diverse), so one crash
// burst cannot take out a whole replica set.
//
// Write protocol. Each replica slot runs a store→ack exchange on the
// engine's virtual clock: the store request takes a real transfer time,
// the ack a network latency, and a missing ack retries on the PR 5
// exponential-backoff ladder up to max_attempts before the slot is
// replaced from the placement ranking. The write settles when ⌈(k+1)/2⌉
// *distinct* acceptors acked (quorum — duplicate acks from byzantine
// acceptors are suppressed, false acks are tolerated up to ⌊(k−1)/2⌋
// byzantine members because quorum − ⌊(k−1)/2⌋ ≥ 1 ack is then honest), or
// degrades explicitly when the candidate pool is exhausted below quorum.
//
// Anti-entropy. When a mailbox peer crashes, every entry holding a replica
// on it re-replicates from a surviving stored copy to a fresh candidate
// (handoff); an entry with no surviving copy degrades. Replay serves from
// any live, genuinely stored, non-withholding replica, in entry insertion
// order; the engine's `delivered` set stays the dedup authority, so a
// message both replayed locally and recovered from a mailbox is delivered
// once.
//
// Determinism: placement draws, byzantine fates and burst schedules are
// pure hashes of (seed, keys); all cross-entry iteration follows insertion
// order — same-seed runs are bit-identical. Every transition is counted
// under `mailbox.*`, pre-registered at construction so chaos reports carry
// a seed-independent schema.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/network_model.hpp"
#include "obs/memory.hpp"
#include "overlay/routing.hpp"
#include "runtime/event_engine.hpp"

namespace sel::fault {
class FaultPlan;
}

namespace sel::pubsub {

using MessageId = std::uint64_t;

/// Replication parameters. Defaults give k=3 / quorum 2 — tolerating one
/// byzantine or crashed acceptor per entry at triple storage cost.
struct MailboxPolicy {
  std::size_t replicas = 3;  ///< k: target replica count per entry
  double bias = 2.0;         ///< CMA exponent in the placement score
  /// Rendezvous fallback pool: at most this many non-neighborhood
  /// candidates are rank-eligible (bounds the per-entry candidate list).
  std::size_t fallback_pool = 24;
  /// Store/ack retry ladder: the timeout doubles per attempt, with up to
  /// 20% deterministic jitter, then the slot is replaced.
  double ack_timeout_s = 2.0;
  std::size_t max_attempts = 3;  ///< store sends per replica slot
  double payload_bytes = net::kDefaultPayloadBytes;

  /// Quorum: ⌈(k+1)/2⌉ distinct acks.
  [[nodiscard]] std::size_t quorum() const noexcept {
    return replicas / 2 + 1;
  }
};

/// Per-manager aggregate counters (global `mailbox.*` metrics mirror them
/// process-wide).
struct MailboxStats {
  std::size_t replicated = 0;      ///< entries accepted for replication
  std::size_t store_attempts = 0;  ///< store requests sent (retries incl.)
  std::size_t acks = 0;            ///< distinct acks received
  std::size_t duplicate_acks = 0;  ///< suppressed duplicate acks
  std::size_t retries = 0;         ///< store resends after timeout
  std::size_t replacements = 0;    ///< replica slots refilled from ranking
  std::size_t quorum_writes = 0;   ///< entries settled at quorum
  std::size_t quorum_degraded = 0; ///< entries settled below quorum
  std::size_t handoffs = 0;        ///< anti-entropy re-replications
  std::size_t replays = 0;         ///< messages served back at replay
  std::size_t replay_lost = 0;     ///< entries with no live replica at replay
  std::size_t superseded = 0;      ///< entries resolved by primary delivery
};

/// Replicates undelivered messages across mailbox peers and serves them
/// back on subscriber return. Owned by the driver, shared with the engine
/// via NotificationEngine::set_mailbox(); schedules on the engine's
/// EventEngine so stores, acks and retries interleave with dissemination
/// in virtual time.
class MailboxManager {
 public:
  /// `overlay` supplies the candidate pool and liveness; `availability`
  /// maps a peer to its CMA in [0,1] (e.g. SelectSystem::cma_of) — null
  /// means every peer scores 1.0 (pure rendezvous hashing).
  MailboxManager(runtime::EventEngine& queue, const overlay::Overlay& overlay,
                 const net::NetworkModel& net, MailboxPolicy policy,
                 std::uint64_t seed);

  /// Attaches the fault plan (not owned; null = fault-free acceptors).
  /// Byzantine ack fates, failure domains and crash state come from it.
  void set_fault_plan(fault::FaultPlan* plan) noexcept { fault_ = plan; }
  void set_availability_fn(
      std::function<double(overlay::PeerId)> availability) {
    availability_ = std::move(availability);
  }

  /// Replicates message `msg` (queued for `subscriber`, currently held by
  /// `source`) to k mailbox peers starting at `t_s`. Idempotent per
  /// (msg, subscriber): a second call is a no-op.
  void replicate(MessageId msg, overlay::PeerId subscriber,
                 overlay::PeerId source, double t_s);

  /// Serves every unresolved entry for `subscriber` from a live stored
  /// replica, resolving the entries. Returns the recovered message ids in
  /// entry insertion order; the caller (engine) owns delivery dedup.
  [[nodiscard]] std::vector<MessageId> replay(overlay::PeerId subscriber,
                                              double t_s);

  /// Anti-entropy: `peer` crashed. Every entry with a replica slot on it
  /// re-replicates from a surviving stored copy (handoff) or degrades.
  void on_peer_crashed(overlay::PeerId peer, double t_s);

  /// The subscriber received `msg` through the primary/local path after
  /// all — resolves the entry so replay() never re-serves it and the
  /// pending gauge stays tight. Counted as `mailbox.superseded`.
  void on_delivered(MessageId msg, overlay::PeerId subscriber);

  /// Unresolved entries currently held.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  [[nodiscard]] const MailboxStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const MailboxPolicy& policy() const noexcept {
    return policy_;
  }

  /// The placement ranking for `subscriber` (best first, subscriber and
  /// crashed peers excluded) — exposed for tests and the placement bench.
  [[nodiscard]] std::vector<overlay::PeerId> placement_ranking(
      overlay::PeerId subscriber) const;

  /// Current replica holders of (msg, subscriber), slot order; empty when
  /// no unresolved entry exists. Test/diagnostic surface.
  [[nodiscard]] std::vector<overlay::PeerId> replicas_of(
      MessageId msg, overlay::PeerId subscriber) const;

 private:
  enum class SlotState : std::uint8_t { kPending, kStored, kFailed };
  struct Replica {
    overlay::PeerId peer = overlay::kInvalidPeer;
    SlotState state = SlotState::kPending;
    /// Ground truth: the acceptor genuinely persisted the copy (false for
    /// byzantine false-acks). Replay serves only from stored_real slots.
    bool stored_real = false;
    std::uint32_t attempts = 0;
  };
  struct Entry {
    MessageId msg = 0;
    overlay::PeerId subscriber = overlay::kInvalidPeer;
    overlay::PeerId source = overlay::kInvalidPeer;
    std::vector<Replica> replicas;  ///< slot order = assignment order
    /// Placement ranking captured at creation; replacement scans it again,
    /// skipping peers already holding (or having failed) a slot.
    std::vector<overlay::PeerId> ranking;
    std::size_t acks = 0;  ///< distinct acceptors acked
    bool quorum_reached = false;
    bool degraded = false;
    bool resolved = false;  ///< replayed, forgotten, or abandoned
  };

  [[nodiscard]] double availability_of(overlay::PeerId p) const;
  /// True when every placement score is at most placement_score_bound of
  /// its draw: a non-negative bias and every availability <= 1 (one pass).
  [[nodiscard]] bool scores_bounded() const;
  /// The kDrawOrderDepth peers (all, when fewer) with the highest
  /// rendezvous draw for `subscriber` (`key` is its half of the hash), in
  /// (u desc, peer asc) order. Computed once per subscriber: the draw
  /// never changes.
  [[nodiscard]] std::span<const overlay::PeerId> draw_order(
      overlay::PeerId subscriber, std::uint64_t key) const;
  [[nodiscard]] bool peer_dead(overlay::PeerId p) const;
  /// Domain-diverse slot assignment: next usable candidate from the
  /// entry's ranking, or kInvalidPeer when exhausted.
  [[nodiscard]] overlay::PeerId next_replica(Entry& entry) const;
  /// Starts (or restarts) the store→ack exchange for slot `slot`.
  void send_store(std::size_t entry_idx, std::size_t slot, double t_s);
  void store_arrived(std::size_t entry_idx, std::size_t slot,
                     std::uint32_t attempt, double send_s, double now_s);
  void ack_arrived(std::size_t entry_idx, std::size_t slot,
                   overlay::PeerId acceptor, bool stored, bool duplicate,
                   double now_s);
  void store_failed(std::size_t entry_idx, std::size_t slot,
                    std::uint32_t attempt, double send_s, double now_s);
  /// Replaces a failed slot from the ranking or settles the entry.
  void replace_or_settle(std::size_t entry_idx, std::size_t slot,
                         double t_s);
  void settle(Entry& entry);
  [[nodiscard]] double timeout_for(const Entry& entry, std::size_t slot,
                                   std::uint32_t attempt) const;
  void resolve(Entry& entry);

  runtime::EventEngine* queue_;
  const overlay::Overlay* overlay_;
  const net::NetworkModel* net_;
  MailboxPolicy policy_;
  std::uint64_t seed_;
  fault::FaultPlan* fault_ = nullptr;  ///< not owned
  std::function<double(overlay::PeerId)> availability_;

  /// Draw-order cache behind placement_ranking(): draw_slot_[s] is the
  /// start of s's kDrawOrderDepth peers in draws_, or kNoDrawOrder.
  static constexpr std::size_t kDrawOrderDepth = 64;
  static constexpr std::uint32_t kNoDrawOrder = 0xffffffff;
  mutable obs::AccountedVector<std::uint32_t, obs::Subsystem::kPubsub>
      draw_slot_;
  mutable obs::AccountedVector<overlay::PeerId, obs::Subsystem::kPubsub>
      draws_;

  /// Entries in creation order — the deterministic iteration spine for
  /// replay and anti-entropy. Resolved entries are tombstoned in place.
  std::vector<Entry, obs::Tagged<Entry, obs::Subsystem::kPubsub>> entries_;
  /// subscriber -> indices into entries_ (insertion order).
  std::unordered_map<
      overlay::PeerId, std::vector<std::size_t>, std::hash<overlay::PeerId>,
      std::equal_to<overlay::PeerId>,
      obs::Tagged<std::pair<const overlay::PeerId, std::vector<std::size_t>>,
                  obs::Subsystem::kPubsub>>
      by_subscriber_;
  std::size_t pending_ = 0;
  MailboxStats stats_;
};

}  // namespace sel::pubsub

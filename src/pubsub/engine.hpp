// NotificationEngine — the message plane of the system.
//
// The metrics in metrics.hpp evaluate one dissemination at a time; this
// engine runs the *service*: posts arrive on a timeline (from the Jiang et
// al. workload or an application), each becomes a message disseminated down
// the system's routing tree with real transfer durations (latency +
// payload/bandwidth, uplink shared across a node's simultaneous child
// sends), overlapping freely with other messages. Per-message and aggregate
// delivery statistics come out the other end.
//
// Trees are cached per publisher and invalidated on churn — rebuilding the
// tree for every post would hide the cost structure a real deployment has.
// A cache entry is immutable and shared: every message in flight from a
// publisher points at the entry it was published with (tree, subscriber
// flags and edge transfer times by tree position), so a publish copies no
// tree and a hop reads arrays instead of looking peers up.
//
// Execution runtime (src/runtime/): the engine's runtime::Transport decides
// each hop's fate and arrival time, and the engine schedules the arrivals on
// its EventEngine at their exact virtual times; protocol timers (ack
// deadlines, resends) share that clock.
//
// Reliability layer (fault injection + recovery): attaching a
// fault::FaultPlan (set_fault_plan) subjects every hop to drops, duplicate
// deliveries, latency spikes and receiver stalls/crashes; enabling a
// RetryPolicy (set_retry_policy) makes the engine survive them with a
// per-hop ack/timeout protocol:
//
//   * a hop whose message was dropped, or whose receiver did not ack
//     (stalled, crashed, offline), is resent after an exponential-backoff
//     timeout with deterministic jitter, up to max_attempts;
//   * when the retry budget for a relay is exhausted the subtree under it
//     is declared lost and each not-yet-delivered subscriber in it fails
//     over to its disjoint backup route from the publisher's MultipathPlan
//     (set_multipath_planner);
//   * subscribers unreachable even by failover are queued store-and-forward
//     and replayed when they return from a churn offline period
//     (replay_missed);
//   * every ack/timeout outcome is reported to the availability observer so
//     the SELECT recovery layer's per-peer CMA (paper Sec. III-F) learns
//     from the message plane, not just from polling.
//
// With neither a fault plan nor a retry policy the engine behaves exactly
// as the perfect-transfer-plane implementation it grew out of (exactly-once
// delivery down the tree); reliable mode switches the delivery invariant to
// at-least-once with receiver-side dedup (check/tree_checks.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/stats.hpp"
#include "net/network_model.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "overlay/system.hpp"
#include "pubsub/multipath.hpp"
#include "runtime/event_engine.hpp"
#include "runtime/runtime.hpp"
#include "runtime/transport.hpp"

namespace sel::fault {
class FaultPlan;
}

namespace sel::pubsub {

class MailboxManager;

using MessageId = std::uint64_t;

/// Message-plane hash containers are attributed to `mem.pubsub`
/// (obs/memory.hpp): per-message dedup/replay state plus the per-publisher
/// tree and multipath caches are the engine's dominant long-lived footprint.
template <typename K>
using PubsubSet =
    std::unordered_set<K, std::hash<K>, std::equal_to<K>,
                       obs::Tagged<K, obs::Subsystem::kPubsub>>;
template <typename K, typename V>
using PubsubMap = std::unordered_map<
    K, V, std::hash<K>, std::equal_to<K>,
    obs::Tagged<std::pair<const K, V>, obs::Subsystem::kPubsub>>;

/// Ack/timeout recovery parameters. Default-constructed (enabled = false)
/// the engine performs no retries — the control configuration for chaos
/// experiments; drivers set `enabled` and whatever else they vary. Enabled,
/// the engine also reroutes lost subscribers over multipath backups and
/// queues the unreachable ones for store-and-forward replay.
struct RetryPolicy {
  bool enabled = false;
  /// Base ack timeout before the first resend; each later attempt doubles
  /// it, and every timeout is stretched by up to 20% deterministic jitter.
  /// The default comfortably exceeds a typical 1.2 MB transfer (~0.2-5 s in
  /// the bandwidth model).
  double ack_timeout_s = 5.0;
  std::size_t max_attempts = 4;  ///< total sends per hop, first included
  /// Bound on queued (message, subscriber) replay entries across all
  /// subscribers; 0 = unbounded. When full, the oldest queued entry is
  /// evicted (counted as `pubsub.replay_evicted`) — the mailbox tier, when
  /// armed, still holds replicas of evicted messages.
  std::size_t replay_cap = 0;
};

struct MessageRecord {
  MessageId id = 0;
  overlay::PeerId publisher = overlay::kInvalidPeer;
  /// Non-zero when this publish was sampled by the provenance tracer
  /// (obs/provenance.hpp); every hop of its dissemination is recorded.
  obs::TraceId trace = 0;
  double publish_time_s = 0.0;
  std::size_t wanted = 0;     ///< online subscribers at publish time
  std::size_t delivered = 0;  ///< subscribers reached so far
  std::size_t relay_forwards = 0;  ///< forwards by non-subscribers
  // -- reliable mode only -----------------------------------------------
  std::size_t retries = 0;    ///< resends after a hop timed out
  std::size_t failovers = 0;  ///< subscribers rerouted via backup paths
  std::size_t replays = 0;    ///< store-and-forward deliveries on return
  std::size_t duplicates_suppressed = 0;  ///< receiver-side dedup hits
  /// Subscribers that received the message (in-flight or replayed) — the
  /// receiver dedup set behind the at-least-once invariant. Outlives the
  /// in-flight state so late replays stay deduplicated.
  PubsubSet<overlay::PeerId> delivered_to;
  /// Subscribers given up on in-flight, awaiting store-and-forward replay.
  PubsubSet<overlay::PeerId> missed;
  RunningStats delivery_latency_s;
  /// Completion time (max subscriber arrival, Eq. 1); set when all wanted
  /// subscribers were reached.
  std::optional<double> completed_at_s;
};

/// The engine's tallies. Every counter but `wanted` and `tree_cache_hits`
/// also feeds a registry counter summed over all engines, up to date
/// whenever control is outside the engine.
struct EngineStats {
  std::size_t messages_published = 0;
  std::size_t deliveries = 0;
  /// Sum of the hop depths deliveries land at: over `deliveries`, the
  /// sampler's average route length (obs/sampler.cpp).
  std::size_t delivery_hops = 0;
  std::size_t wanted = 0;
  std::size_t relay_forwards = 0;
  std::size_t tree_cache_hits = 0;
  std::size_t tree_cache_misses = 0;
  // -- reliable mode only -----------------------------------------------
  std::size_t retries = 0;
  std::size_t retry_exhausted = 0;  ///< hops abandoned after max_attempts
  std::size_t failovers = 0;
  std::size_t replays = 0;
  std::size_t duplicates_suppressed = 0;
  std::size_t missed = 0;  ///< subscriber misses queued (or counted) so far
  std::size_t replay_evicted = 0;  ///< queue entries dropped by replay_cap
  /// Queued replays dropped because their publisher (the only local copy
  /// holder) crashed; the mailbox tier covers these when armed.
  std::size_t replay_dropped_crash = 0;
  std::size_t mailbox_replays = 0;  ///< deliveries served from mailbox replicas
  /// Detours around a dead relay that found no live path, and those the
  /// overlay could not even attempt (no route_avoiding capability).
  std::size_t route_avoid_failed = 0;
  std::size_t route_avoid_unsupported = 0;
  RunningStats delivery_latency_s;

  [[nodiscard]] double delivery_rate() const noexcept {
    return wanted == 0 ? 1.0
                       : static_cast<double>(deliveries) /
                             static_cast<double>(wanted);
  }
};

class NotificationEngine {
 public:
  /// The engine reads (never mutates) the system and network model; both
  /// must outlive it.
  NotificationEngine(const overlay::PubSubSystem& sys,
                     const net::NetworkModel& net,
                     double payload_bytes = net::kDefaultPayloadBytes);
  // Scheduled events capture `this`; any mailbox holds queue_ by address.
  NotificationEngine(const NotificationEngine&) = delete;
  NotificationEngine& operator=(const NotificationEngine&) = delete;
  ~NotificationEngine();  ///< flushes the tallies into the registry

  /// Publishes a message at `time_s` (>= the engine clock). Transfers are
  /// scheduled on the internal event engine; call run_until()/run_all() to
  /// make progress. Returns the message id.
  MessageId publish(overlay::PeerId publisher, double time_s);

  /// Advances simulated time, delivering everything due by then.
  void run_until(double t_s) { queue_.run_until(t_s); }
  /// Drains all in-flight transfers.
  void run_all() { queue_.run(); }

  [[nodiscard]] double now_s() const noexcept { return queue_.now_s(); }

  /// Drops cached trees (and multipath plans); call after churn, topology
  /// maintenance or PubSubSystem::set_interest_function, because a cache
  /// entry holds the publisher's subscriber flags as well as its tree.
  /// Messages already in flight keep the entry they were published with.
  void invalidate_trees() {
    tree_cache_.clear();
    multipath_cache_.clear();
  }

  // -- execution runtime ------------------------------------------------
  /// Reconfigures the runtime (tie seed). Must be called before the first
  /// publish.
  void set_runtime_options(runtime::Options options);
  /// The virtual-time executor a mailbox tier must schedule on.
  [[nodiscard]] runtime::EventEngine& event_engine() noexcept {
    return queue_;
  }

  // -- reliability ------------------------------------------------------
  /// Attaches a fault plan (not owned; may be null to detach). Hop fates
  /// and receiver states are drawn from it for every transfer.
  void set_fault_plan(fault::FaultPlan* plan) {
    fault_ = plan;
    transport_.set_fault_plan(plan);
  }
  void set_retry_policy(RetryPolicy policy) { retry_ = policy; }
  /// Ack/timeout outcomes per receiving peer (true = acked). Feed this to
  /// core::SelectSystem::observe_availability for CMA-guided recovery.
  void set_availability_observer(
      std::function<void(overlay::PeerId, bool)> observer) {
    observer_ = std::move(observer);
  }
  /// Supplies backup routes for failover (typically wraps plan_multipath).
  /// Plans are cached per publisher until invalidate_trees().
  void set_multipath_planner(
      std::function<MultipathPlan(overlay::PeerId)> planner) {
    planner_ = std::move(planner);
  }
  /// Attaches the replicated-mailbox durability tier (not owned; null
  /// detaches). Every store-and-forward miss is then also replicated to k
  /// mailbox peers, and replay_missed() serves from surviving replicas
  /// after the local queue — so a publisher crash no longer loses queued
  /// notifications. The manager must schedule on this engine's
  /// event_engine().
  void set_mailbox(MailboxManager* mailbox) noexcept { mailbox_ = mailbox; }

  /// True when hops go through the ack/retry/dedup path (a fault plan is
  /// attached or retries are enabled) rather than the perfect-transfer one.
  [[nodiscard]] bool reliable() const noexcept {
    return fault_ != nullptr || retry_.enabled;
  }

  /// Replays every message queued for `subscriber` (store-and-forward);
  /// call when churn brings the peer back online. Messages the subscriber
  /// already received in-flight are skipped, not re-delivered. Returns the
  /// number of messages replayed.
  std::size_t replay_missed(overlay::PeerId subscriber, double t_s);
  /// Queued (message, subscriber) replay entries not yet replayed.
  [[nodiscard]] std::size_t pending_replays() const noexcept {
    return replay_queued_;
  }

  /// Crash notification from the driver (burst schedules, forced publisher
  /// crashes): drops queued replays whose only local copy lived on the
  /// crashed publisher (counted as `pubsub.replay_dropped_crash`) and runs
  /// the mailbox's anti-entropy handoff. Without a mailbox those messages
  /// are simply gone — the durability gap the mailbox tier closes.
  void on_peer_crashed(overlay::PeerId peer, double t_s);

  [[nodiscard]] const MessageRecord& record(MessageId id) const;
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return queue_.queue_depth();
  }

 private:
  using Pos = overlay::DisseminationTree::Pos;
  /// Index of a message's in-flight state in slots_.
  using Slot = std::uint32_t;

  /// One publisher's cached dissemination state: built on a cache miss,
  /// then immutable and shared by every message published from it until
  /// invalidate_trees().
  struct TreeEntry {
    explicit TreeEntry(overlay::DisseminationTree t) : tree(std::move(t)) {}

    overlay::DisseminationTree tree;
    /// Ascending-ordered (FlatSet) so loops over it — store-and-forward
    /// marking — visit subscribers deterministically.
    FlatSet<overlay::PeerId> subscribers;
    /// By tree position: 1 when the node is a subscriber.
    obs::AccountedVector<std::uint8_t, obs::Subsystem::kPubsub> subscribed;
    /// By tree position: Transport::transfer_time_s of the edge from the
    /// node's parent, at the parent's fan-out (0 at the root).
    obs::AccountedVector<double, obs::Subsystem::kPubsub> edge_s;
    /// Subscribers present in the tree — the exactly-once delivery bound
    /// (always maintained so SEL_CHECK can be enabled mid-flight; see
    /// check/tree_checks.hpp).
    std::size_t max_deliveries = 0;
  };
  using SharedTree = std::shared_ptr<const TreeEntry>;

  /// A source-routed failover chain from the publisher to one subscriber.
  struct Route {
    std::vector<overlay::PeerId> hops;
    /// A route_avoiding() path (already a second-chance route): its
    /// failures terminate in replay instead of rerouting again, which
    /// bounds the recovery chain at two route computations.
    bool detour = false;
  };

  /// Leg of a reliable hop that runs down the dissemination tree.
  static constexpr std::uint32_t kTree = 0xffffffffu;
  /// Attempt `attempt` of one reliable hop of the message in `slot`. On leg
  /// kTree it is the tree edge into position `index`; any other leg is
  /// failover route routes[leg], and the hop runs from its peer `index` to
  /// peer `index + 1`.
  struct Hop {
    Slot slot;
    std::uint32_t leg;
    std::uint32_t index;
    std::uint32_t attempt;
  };
  /// What a Hop resolves to (ends_of): the wire message minus its send
  /// time (ends, uplink share, salted fault key, duplicate collapse), the
  /// receiver's depth, whether the receiver is a subscriber the hop delivers
  /// to (a subscribed tree node, a route's last peer) or a relay, and the
  /// cached edge time that only a first tree attempt uses.
  struct HopEnds {
    runtime::Message message;
    std::uint32_t depth = 0;
    bool delivers = false;
    bool relay = false;
    std::optional<double> edge_s;
  };

  /// In-flight state of one message. Every scheduled event increments
  /// pending_events at its schedule site and calls finish_event() when it
  /// fires, so the slot lives exactly as long as any event (arrival, retry
  /// timer, failover hop) references it; then it is reused.
  struct InFlight {
    MessageId id = 0;
    SharedTree tree;
    std::uint32_t pending_events = 0;
    /// Reliable mode, by tree position: the node acked a copy already —
    /// only the first receipt forwards down the tree, so injected
    /// duplicates and retransmission races cannot multiply traffic.
    obs::AccountedVector<std::uint8_t, obs::Subsystem::kPubsub> received;
    /// Reliable mode: failover chains, indexed by the events walking them.
    std::vector<Route, obs::Tagged<Route, obs::Subsystem::kPubsub>> routes;
  };

  /// The cache entry for `publisher`, built on a miss.
  const SharedTree& tree_for(overlay::PeerId publisher);
  [[nodiscard]] MessageRecord& record_of(MessageId id) {
    return records_[(id - 1) / kRecordsPerChunk][(id - 1) % kRecordsPerChunk];
  }

  /// Schedules the sends from tree position `node` of the message in
  /// `slot` down its tree.
  void forward(Slot slot, Pos node, double start_s);
  /// Perfect transfer plane: a copy reached tree position `node`.
  void arrive(Slot slot, Pos node, double now_s);

  /// Counts a delivery to `rec`'s subscriber `depth` hops from the
  /// publisher; callers check the delivery invariant that applies.
  void count_delivery(MessageRecord& rec, std::uint32_t depth, double now_s);
  /// Counts a forward by a non-subscriber.
  void count_relay(MessageRecord& rec) {
    ++rec.relay_forwards;
    ++stats_.relay_forwards;
  }

  // Reliable-mode hop ladder.
  [[nodiscard]] HopEnds ends_of(const Hop& hop) const;
  void send_hop(Hop hop, double start_s);
  void deliver_hop(Hop hop, double send_s, double now_s);
  /// Timeout handling for `hop`, sent at `send_s`: feeds the availability
  /// observer and schedules the resend at the backoff deadline; with the
  /// budget exhausted, a tree hop declares the subtree under its receiver
  /// lost, and a route hop detours once or queues its subscriber for replay.
  void hop_failed(Hop hop, double send_s, double now_s);
  /// Reroutes every undelivered subscriber in the tree subtree under `dead`
  /// via its backup path, or queues it for replay when no backup exists.
  void lost_subtree(Slot slot, Pos dead, double now_s);
  /// Starts a route_avoiding() detour from the publisher to `subscriber`
  /// around `dead`; false (counted as a failed or unsupported detour) when
  /// the overlay offers none.
  bool try_detour(Slot slot, overlay::PeerId subscriber, overlay::PeerId dead,
                  double now_s);
  /// Counts a failover and sends the first hop of `route`.
  void start_route(Slot slot, Route route, double now_s);
  /// Counts a subscriber delivery with receiver-side dedup.
  void deliver_to_subscriber(Slot slot, overlay::PeerId to,
                             std::uint32_t depth, double now_s);
  /// Queues `subscriber` for store-and-forward replay (deduplicated) at
  /// `t_s`, replicating to the mailbox tier when one is attached and
  /// evicting the oldest queued entry beyond RetryPolicy::replay_cap.
  void mark_missed(MessageId id, overlay::PeerId subscriber, double t_s);
  /// Backoff deadline (seconds after the send) for resending attempt
  /// `attempt + 1`: the ack timeout doubled per earlier attempt, stretched
  /// by up to 20% of deterministic jitter.
  [[nodiscard]] double timeout_for(MessageId id, overlay::PeerId to,
                                   std::uint32_t attempt) const;
  /// Cached multipath plan for `publisher`; null without a planner.
  [[nodiscard]] const MultipathPlan* multipath_for(overlay::PeerId publisher);
  void record_hop(const MessageRecord& rec, overlay::PeerId from,
                  overlay::PeerId to, std::uint32_t depth,
                  std::uint32_t attempt, bool failover, bool relay,
                  bool delivered, double send_s, double arrive_s) const;

  /// Decrements the pending-event count; recycles the slot when the last
  /// event of its message fired.
  void finish_event(Slot slot);
  /// Adds each registry-mirrored stats_ field's change since the last call
  /// (and the transport's tallies) to the registry: the drain hook, and the
  /// last step of every other entry point that counts.
  void flush_tallies() noexcept;

  const overlay::PubSubSystem* sys_;
  double payload_bytes_;
  runtime::EventEngine queue_;
  runtime::Transport transport_;
  MessageId next_id_ = 1;
  /// Record of message id i at index i - 1, in chunks of kRecordsPerChunk
  /// reserved up front and never grown past, so a reference from record()
  /// stays valid across later publishes.
  static constexpr std::size_t kRecordsPerChunk = 256;
  std::vector<obs::AccountedVector<MessageRecord, obs::Subsystem::kPubsub>>
      records_;
  /// In-flight slot pool; freed whole once no message is in flight.
  std::vector<InFlight, obs::Tagged<InFlight, obs::Subsystem::kPubsub>>
      slots_;
  obs::AccountedVector<Slot, obs::Subsystem::kPubsub> free_slots_;
  PubsubMap<overlay::PeerId, SharedTree> tree_cache_;
  EngineStats stats_;
  /// stats_ as of the last flush_tallies(): what the registry has seen.
  EngineStats flushed_;
  obs::LocalHistogram delivery_latency_s_;

  fault::FaultPlan* fault_ = nullptr;  ///< not owned
  RetryPolicy retry_;
  std::function<void(overlay::PeerId, bool)> observer_;
  std::function<MultipathPlan(overlay::PeerId)> planner_;
  PubsubMap<overlay::PeerId, MultipathPlan> multipath_cache_;
  /// Store-and-forward queue: per subscriber, messages awaiting replay.
  PubsubMap<overlay::PeerId, std::vector<MessageId>> missed_;
  /// Oldest-first eviction order for replay_cap: (message, subscriber)
  /// in queueing order. Entries already replayed are skipped lazily;
  /// replay_queued_ counts the entries in missed_, which the cap bounds.
  std::deque<std::pair<MessageId, overlay::PeerId>,
             obs::Tagged<std::pair<MessageId, overlay::PeerId>,
                         obs::Subsystem::kPubsub>>
      replay_fifo_;
  std::size_t replay_queued_ = 0;
  MailboxManager* mailbox_ = nullptr;  ///< not owned
};

}  // namespace sel::pubsub

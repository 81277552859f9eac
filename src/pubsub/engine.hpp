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
//
// Execution runtime (src/runtime/): hops travel through the engine's
// runtime::Transport, which schedules every arrival on the engine's
// EventEngine at its exact virtual time; protocol timers (ack deadlines,
// resends) share that clock.
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
/// experiments. from_env() is the experiment entry point.
struct RetryPolicy {
  bool enabled = false;
  /// Base ack timeout before the first resend. The default comfortably
  /// exceeds a typical 1.2 MB transfer (~0.2-5 s in the bandwidth model).
  double ack_timeout_s = 5.0;
  double backoff = 2.0;  ///< timeout multiplier per failed attempt
  /// Deterministic jitter: each timeout is stretched by up to this fraction,
  /// keyed on (message, receiver, attempt) so same-seed runs are identical.
  double jitter = 0.2;
  std::size_t max_attempts = 4;  ///< total sends per hop, first included
  bool failover = true;          ///< reroute lost subscribers via multipath
  bool replay = true;            ///< store-and-forward for missed subscribers
  /// Bound on queued (message, subscriber) replay entries across all
  /// subscribers; 0 = unbounded. When full, the oldest queued entry is
  /// evicted (counted as `pubsub.replay_evicted`) — the mailbox tier, when
  /// armed, still holds replicas of evicted messages.
  std::size_t replay_cap = 0;

  /// Enabled policy with SEL_RETRY_TIMEOUT_S / SEL_RETRY_BACKOFF /
  /// SEL_RETRY_JITTER / SEL_RETRY_MAX / SEL_REPLAY_CAP applied over the
  /// defaults.
  [[nodiscard]] static RetryPolicy from_env();
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

struct EngineStats {
  std::size_t messages_published = 0;
  std::size_t deliveries = 0;
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
  std::size_t replay_evicted = 0;  ///< queue entries dropped by SEL_REPLAY_CAP
  /// Queued replays dropped because their publisher (the only local copy
  /// holder) crashed; the mailbox tier covers these when armed.
  std::size_t replay_dropped_crash = 0;
  std::size_t mailbox_replays = 0;  ///< deliveries served from mailbox replicas
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
  // Scheduled events capture `this`; the transport and any mailbox hold
  // queue_ by address.
  NotificationEngine(const NotificationEngine&) = delete;
  NotificationEngine& operator=(const NotificationEngine&) = delete;

  /// Publishes a message at `time_s` (>= the engine clock). Transfers are
  /// scheduled on the internal event engine; call run_until()/run_all() to
  /// make progress. Returns the message id.
  MessageId publish(overlay::PeerId publisher, double time_s);

  /// Advances simulated time, delivering everything due by then.
  void run_until(double t_s) { queue_.run_until(t_s); }
  /// Drains all in-flight transfers.
  void run_all() { queue_.run(); }

  [[nodiscard]] double now_s() const noexcept { return queue_.now_s(); }

  /// Drops cached trees (and multipath plans); call after churn or topology
  /// maintenance.
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
  [[nodiscard]] MailboxManager* mailbox() const noexcept { return mailbox_; }

  /// True when hops go through the ack/retry/dedup path (a fault plan is
  /// attached or retries are enabled) rather than the perfect-transfer one.
  [[nodiscard]] bool reliable() const noexcept {
    return fault_ != nullptr || retry_.enabled;
  }
  [[nodiscard]] const RetryPolicy& retry_policy() const noexcept {
    return retry_;
  }

  /// Replays every message queued for `subscriber` (store-and-forward);
  /// call when churn brings the peer back online. Messages the subscriber
  /// already received in-flight are skipped, not re-delivered. Returns the
  /// number of messages replayed.
  std::size_t replay_missed(overlay::PeerId subscriber, double t_s);
  /// Queued (message, subscriber) replay entries not yet replayed.
  [[nodiscard]] std::size_t pending_replays() const;

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
  /// Per-message subscriber set + tree (kept while events are pending).
  struct InFlight {
    overlay::DisseminationTree tree;
    /// Ascending-ordered (FlatSet) so loops over it — delivery accounting,
    /// store-and-forward marking — visit subscribers deterministically.
    FlatSet<overlay::PeerId> subscribers;
    std::size_t pending_events = 0;
    /// Subscribers present in the tree — the exactly-once delivery bound
    /// (always maintained so SEL_CHECK can be enabled mid-flight; see
    /// check/tree_checks.hpp).
    std::size_t max_deliveries = 0;
    /// Reliable mode: peers that acked a copy already — only the first
    /// receipt forwards down the tree, so injected duplicates and
    /// retransmission races cannot multiply traffic.
    PubsubSet<overlay::PeerId> received;
  };

  /// Shared source-routed path for failover resends (immutable once built).
  using FailoverPath = std::shared_ptr<const std::vector<overlay::PeerId>>;

  /// Schedules the sends from `node` (at tree depth `depth`) for message
  /// `id` down its cached tree.
  void forward(MessageId id, overlay::PeerId node, double start_s,
               std::uint32_t depth);

  // Reliable-mode hop pipeline. Every scheduled event increments
  // InFlight::pending_events at its schedule site and calls finish_event()
  // when it fires, so the in-flight state lives exactly as long as any
  // event (arrival, retry timer, failover hop) references it.
  void send_hop(MessageId id, overlay::PeerId from, overlay::PeerId to,
                std::uint32_t depth, std::uint32_t attempt, double start_s,
                std::size_t share);
  void deliver_hop(MessageId id, overlay::PeerId from, overlay::PeerId to,
                   std::uint32_t depth, std::uint32_t attempt, double send_s,
                   double now_s, fault::ReceiveState receiver_state);
  /// Timeout handling for attempt `attempt` of the hop to `to`: feeds the
  /// availability observer, schedules the resend at the backoff deadline or
  /// — budget exhausted — declares the subtree under `to` lost.
  void handle_hop_failure(MessageId id, overlay::PeerId from,
                          overlay::PeerId to, std::uint32_t depth,
                          std::uint32_t attempt, double send_s, double now_s);
  /// Reroutes every undelivered subscriber in the tree subtree under `dead`
  /// via its backup path, or queues it for replay when no backup exists.
  void lost_subtree(MessageId id, overlay::PeerId dead, double now_s);
  /// `detour` marks a route_avoiding() path (already a second-chance
  /// route): its failures terminate in replay instead of rerouting again,
  /// which bounds the recovery chain at two route computations.
  void send_failover_hop(MessageId id, FailoverPath path, std::size_t hop,
                         std::uint32_t attempt, double start_s, bool detour);
  void deliver_failover_hop(MessageId id, const FailoverPath& path,
                            std::size_t hop, std::uint32_t attempt,
                            double send_s, double now_s, bool detour,
                            fault::ReceiveState receiver_state);
  void failover_hop_failure(MessageId id, const FailoverPath& path,
                            std::size_t hop, std::uint32_t attempt,
                            double send_s, double now_s, bool detour);
  /// Counts a subscriber delivery with receiver-side dedup.
  void deliver_to_subscriber(MessageId id, overlay::PeerId to,
                             std::uint32_t depth, double now_s);
  /// Queues `subscriber` for store-and-forward replay (deduplicated) at
  /// `t_s`, replicating to the mailbox tier when one is attached and
  /// evicting the oldest queued entry beyond RetryPolicy::replay_cap.
  void mark_missed(MessageId id, overlay::PeerId subscriber, double t_s);
  /// Backoff deadline (seconds after the send) for resending attempt
  /// `attempt + 1`; exponential in `attempt` with deterministic jitter.
  [[nodiscard]] double timeout_for(MessageId id, overlay::PeerId to,
                                   std::uint32_t attempt) const;
  /// Cached multipath plan for `publisher`; null without a planner.
  [[nodiscard]] const MultipathPlan* multipath_for(overlay::PeerId publisher);
  void record_hop(const MessageRecord& rec, overlay::PeerId from,
                  overlay::PeerId to, std::uint32_t depth,
                  std::uint32_t attempt, bool failover, bool relay,
                  bool delivered, double send_s, double arrive_s) const;

  /// Decrements the pending-event count; frees the in-flight state when the
  /// last event of the message fired.
  void finish_event(MessageId id);

  const overlay::PubSubSystem* sys_;
  double payload_bytes_;
  runtime::EventEngine queue_;
  runtime::Transport transport_;
  MessageId next_id_ = 1;
  PubsubMap<MessageId, MessageRecord> records_;
  PubsubMap<MessageId, InFlight> in_flight_;
  PubsubMap<overlay::PeerId, overlay::DisseminationTree> tree_cache_;
  EngineStats stats_;

  fault::FaultPlan* fault_ = nullptr;  ///< not owned
  RetryPolicy retry_;
  std::function<void(overlay::PeerId, bool)> observer_;
  std::function<MultipathPlan(overlay::PeerId)> planner_;
  PubsubMap<overlay::PeerId, MultipathPlan> multipath_cache_;
  /// Store-and-forward queue: per subscriber, messages awaiting replay.
  PubsubMap<overlay::PeerId, std::vector<MessageId>> missed_;
  /// Oldest-first eviction order for SEL_REPLAY_CAP: (message, subscriber)
  /// in queueing order. Entries already replayed are skipped lazily;
  /// replay_queued_ tracks the live count the cap compares against.
  std::deque<std::pair<MessageId, overlay::PeerId>,
             obs::Tagged<std::pair<MessageId, overlay::PeerId>,
                         obs::Subsystem::kPubsub>>
      replay_fifo_;
  std::size_t replay_queued_ = 0;
  MailboxManager* mailbox_ = nullptr;  ///< not owned
};

}  // namespace sel::pubsub

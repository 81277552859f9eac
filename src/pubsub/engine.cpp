#include "pubsub/engine.hpp"

#include <algorithm>
#include <iterator>

#include "check/mailbox_checks.hpp"
#include "check/memory_checks.hpp"
#include "check/tree_checks.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "pubsub/mailbox.hpp"

namespace sel::pubsub {

using overlay::DisseminationTree;
using overlay::PeerId;

namespace {

// Message-plane telemetry (naming: `pubsub.*`). Aggregated across every
// engine instance in the process, unlike the per-engine EngineStats.
obs::Counter& publishes_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("pubsub.publishes");
  return c;
}

obs::Counter& deliveries_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("pubsub.deliveries");
  return c;
}

obs::Counter& relay_forwards_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("pubsub.relay_forwards");
  return c;
}

obs::Counter& tree_builds_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("pubsub.tree_builds");
  return c;
}

// Sum of tree depths at which deliveries land; divided by
// `pubsub.deliveries` this yields the average route length per round in
// the sampler (obs/sampler.cpp).
obs::Counter& delivery_hops_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("pubsub.delivery_hops");
  return c;
}

// Reliability-layer telemetry, live only when a fault plan or retry policy
// is attached.
obs::Counter& retries_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("pubsub.retries");
  return c;
}

obs::Counter& retry_exhausted_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("pubsub.retry_exhausted");
  return c;
}

obs::Counter& failovers_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("pubsub.failovers");
  return c;
}

obs::Counter& replays_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("pubsub.replays");
  return c;
}

obs::Counter& duplicates_suppressed_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("pubsub.duplicates_suppressed");
  return c;
}

obs::Counter& missed_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("pubsub.missed");
  return c;
}

obs::Counter& replay_evicted_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("pubsub.replay_evicted");
  return c;
}

obs::Counter& replay_dropped_crash_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("pubsub.replay_dropped_crash");
  return c;
}

obs::Counter& mailbox_replays_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("pubsub.mailbox_replays");
  return c;
}

// Detour outcomes (fault.* family: reliability-plane telemetry). An
// unsupported answer means the overlay cannot route around peers at all
// (capability absent) — a different signal from a detour that was attempted
// and found no live path.
obs::Counter& route_avoid_failed_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("fault.route_avoid_failed");
  return c;
}

obs::Counter& route_avoid_unsupported_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("fault.route_avoid_unsupported");
  return c;
}

// Messages whose dissemination still has events pending — the protocol-side
// in-flight picture next to the transport-side runtime.queue_depth.
obs::Gauge& in_flight_gauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::global().gauge("runtime.in_flight_messages");
  return g;
}

// Failover resends must not replay the fate sequence the primary route
// already consumed on a shared edge (a direct-link subscriber's backup IS
// its primary): offsetting the attempt index gives failover hops an
// independent fault stream. max_attempts is far below this.
constexpr std::uint32_t kFailoverAttemptBase = 1u << 16;

}  // namespace

RetryPolicy RetryPolicy::from_env() {
  warn_unknown_sel_env_once();
  RetryPolicy p;
  p.enabled = env::get_bool("SEL_RETRY", true);
  p.ack_timeout_s =
      env::get_double("SEL_RETRY_TIMEOUT_S", p.ack_timeout_s, 1e-6, 1e6);
  p.backoff = env::get_double("SEL_RETRY_BACKOFF", p.backoff, 1.0, 1e3);
  p.jitter = env::get_double("SEL_RETRY_JITTER", p.jitter, 0.0, 1.0);
  p.max_attempts = static_cast<std::size_t>(env::get_int(
      "SEL_RETRY_MAX", static_cast<std::int64_t>(p.max_attempts), 1, 1024));
  p.replay_cap = static_cast<std::size_t>(env::get_int(
      "SEL_REPLAY_CAP", static_cast<std::int64_t>(p.replay_cap), 0,
      std::int64_t{1} << 32));
  return p;
}

NotificationEngine::NotificationEngine(const overlay::PubSubSystem& sys,
                                       const net::NetworkModel& net,
                                       double payload_bytes)
    : sys_(&sys),
      payload_bytes_(payload_bytes),
      transport_(queue_, net) {
  SEL_EXPECTS(payload_bytes > 0.0);
  warn_unknown_sel_env_once();
  // Pre-register the replay-lifecycle counters the durability tier reports
  // on, so chaos report schemas don't depend on whether a given seed ever
  // evicted or dropped an entry.
  replay_evicted_counter();
  replay_dropped_crash_counter();
  mailbox_replays_counter();
  route_avoid_failed_counter();
  route_avoid_unsupported_counter();
}

void NotificationEngine::set_runtime_options(runtime::Options options) {
  // Mid-flight reconfiguration would change pending arrival times under the
  // protocol's feet; the engine must be quiescent and unused.
  SEL_EXPECTS(next_id_ == 1 && queue_.idle());
  queue_ = runtime::EventEngine(options.tie_seed);
}

MessageId NotificationEngine::publish(PeerId publisher, double time_s) {
  SEL_EXPECTS(time_s >= queue_.now_s());
  const MessageId id = next_id_++;

  publishes_counter().add(1);
  // Tree: cached per publisher until invalidate_trees().
  auto cached = tree_cache_.find(publisher);
  if (cached == tree_cache_.end()) {
    SEL_TRACE_SCOPE("pubsub.build_tree");
    ++stats_.tree_cache_misses;
    tree_builds_counter().add(1);
    cached = tree_cache_.emplace(publisher, sys_->build_tree(publisher)).first;
    // Every freshly built dissemination tree must be acyclic with one
    // parent per node — the structure exactly-once delivery rides on.
    if (check::enabled(check::Level::kFull)) {
      check::enforce(check::validate_tree(cached->second));
    }
  } else {
    ++stats_.tree_cache_hits;
  }

  InFlight flight{cached->second, sys_->subscribers_of(publisher), 0, 0, {}};

  MessageRecord rec;
  rec.id = id;
  rec.publisher = publisher;
  rec.trace = obs::ProvenanceTracer::global().begin_publish(id, publisher,
                                                            time_s);
  rec.publish_time_s = time_s;
  // max_deliveries is maintained even with SEL_CHECK off (one increment in
  // a loop that runs anyway) so flipping the level mid-flight cannot seed a
  // stale bound.
  for (const PeerId s : flight.subscribers) {
    if (!flight.tree.contains(s)) continue;
    ++flight.max_deliveries;
    if (sys_->peer_online(s)) ++rec.wanted;
  }
  stats_.wanted += rec.wanted;
  ++stats_.messages_published;

  records_.emplace(id, rec);
  auto& stored = in_flight_.emplace(id, std::move(flight)).first->second;
  in_flight_gauge().set(static_cast<double>(in_flight_.size()));
  // SEL_MEM_BUDGET: publish grows the message plane's tracked state, so it
  // is the natural soft-fail point (two relaxed loads when the knob is off).
  check::check_memory_budget();
  // Store-and-forward: subscribers offline right now (in the tree or not)
  // get the message queued for replay on their return.
  if (retry_.enabled && retry_.replay) {
    for (const PeerId s : stored.subscribers) {
      if (!sys_->peer_online(s)) mark_missed(id, s, time_s);
    }
  }
  stored.pending_events = 1;  // the initial forward below
  queue_.schedule(time_s, [this, id, publisher](double now) {
    forward(id, publisher, now, 0);
    finish_event(id);
  });
  return id;
}

void NotificationEngine::finish_event(MessageId id) {
  const auto it = in_flight_.find(id);
  SEL_ASSERT(it != in_flight_.end());
  SEL_ASSERT(it->second.pending_events > 0);
  if (--it->second.pending_events == 0) {
    in_flight_.erase(it);
    in_flight_gauge().set(static_cast<double>(in_flight_.size()));
  }
}

void NotificationEngine::forward(MessageId id, PeerId node, double start_s,
                                 std::uint32_t depth) {
  const auto flight_it = in_flight_.find(id);
  SEL_ASSERT(flight_it != in_flight_.end());
  auto& flight = flight_it->second;
  auto& rec = records_.at(id);

  const auto kids = flight.tree.children(node);
  if (kids.empty()) return;
  // A forwarding non-subscriber is a relay (the publisher itself excluded).
  if (node != rec.publisher && !flight.subscribers.contains(node)) {
    ++rec.relay_forwards;
    ++stats_.relay_forwards;
    relay_forwards_counter().add(1);
  }
  if (reliable()) {
    for (const PeerId child : kids) {
      send_hop(id, node, child, depth + 1, /*attempt=*/0, start_s,
               kids.size());
    }
    return;
  }
  // Perfect transfer plane: every scheduled hop arrives, delivery is
  // exactly-once by tree structure. This branch is byte-identical to the
  // pre-reliability engine. Simultaneous sends split the uplink across all
  // children.
  for (const PeerId child : kids) {
    runtime::Message m;
    m.msg = id;
    m.from = node;
    m.to = child;
    m.payload_bytes = payload_bytes_;
    m.send_s = start_s;
    m.uplink_share = static_cast<std::uint32_t>(kids.size());
    const runtime::SendOutcome outcome = transport_.send(
        m, [this, id, child, depth](const runtime::Arrival& a) {
          const double now = a.arrive_s;
          auto& r = records_.at(id);
          const auto f = in_flight_.find(id);
          SEL_ASSERT(f != in_flight_.end());
          if (f->second.subscribers.contains(child) &&
              sys_->peer_online(child)) {
            ++r.delivered;
            ++stats_.deliveries;
            deliveries_counter().add(1);
            delivery_hops_counter().add(static_cast<std::int64_t>(depth) + 1);
            static obs::Histogram& latency_hist =
                obs::MetricsRegistry::global().histogram(
                    "pubsub.delivery_latency_s");
            const double latency = now - r.publish_time_s;
            latency_hist.observe(latency);
            r.delivery_latency_s.add(latency);
            stats_.delivery_latency_s.add(latency);
            if (r.delivered >= r.wanted) r.completed_at_s = now;
            if (check::enabled()) {
              check::enforce(check::validate_delivery_count(
                  r.delivered, f->second.max_deliveries, r.wanted,
                  r.completed_at_s.has_value()));
            }
          }
          forward(id, child, now, depth + 1);
          finish_event(id);
        });
    // No fault plan reaches this branch (reliable() would be true), so the
    // hop always lands, exactly once.
    SEL_ASSERT(!outcome.dropped && outcome.copies == 1);
    flight.pending_events += outcome.copies;
    if (rec.trace != 0) {
      obs::HopRecord hop;
      hop.trace = rec.trace;
      hop.msg = id;
      hop.from = node;
      hop.to = child;
      hop.depth = depth + 1;
      // Relay status of the *receiver*: a non-subscriber that will forward
      // onward (non-subscriber leaves do not occur in subscriber-first
      // trees, so this matches tree.relay_nodes()).
      hop.relay = !flight.subscribers.contains(child) &&
                  !flight.tree.children(child).empty();
      hop.delivered =
          flight.subscribers.contains(child) && sys_->peer_online(child);
      hop.send_s = start_s;
      hop.arrive_s = outcome.arrive_s;
      obs::ProvenanceTracer::global().record_hop(hop);
    }
  }
}

// ---------------------------------------------------------------------------
// Reliable-mode hop pipeline.
//
// Ack/timeout model: attempt k of a hop is sent at t0 with deadline
// t0 + timeout_for(k). A dropped message is detected at the deadline; an
// unresponsive receiver (stalled, crashed, churned offline) is detected at
// max(arrival, deadline). Detection either resends (attempt k+1, backoff
// grows the deadline) or — budget exhausted — declares the subtree lost.
// The sender's timer is lazy: a slow-but-successful arrival never spuriously
// retries, so each attempt has exactly one outcome and no ack-state table
// is needed. Duplicate deliveries still occur via the fault plan's
// duplicate class and are suppressed at the receiver.
//
// The wire itself — transfer times, hop fates, receiver-state draws — lives
// behind runtime::Transport; the engine owns the protocol reaction to each
// SendOutcome/Arrival.
// ---------------------------------------------------------------------------

void NotificationEngine::record_hop(const MessageRecord& rec, PeerId from,
                                    PeerId to, std::uint32_t depth,
                                    std::uint32_t attempt, bool failover,
                                    bool relay, bool delivered, double send_s,
                                    double arrive_s) const {
  if (rec.trace == 0) return;
  obs::HopRecord hop;
  hop.trace = rec.trace;
  hop.msg = rec.id;
  hop.from = from;
  hop.to = to;
  hop.depth = depth;
  hop.attempt = attempt;
  hop.failover = failover;
  hop.relay = relay;
  hop.delivered = delivered;
  hop.send_s = send_s;
  hop.arrive_s = arrive_s;
  obs::ProvenanceTracer::global().record_hop(hop);
}

double NotificationEngine::timeout_for(MessageId id, PeerId to,
                                       std::uint32_t attempt) const {
  double t = retry_.ack_timeout_s;
  for (std::uint32_t i = 0; i < attempt; ++i) t *= retry_.backoff;
  // Deterministic jitter: a pure hash of (message, receiver, attempt), so
  // same-seed runs time out identically while concurrent retries to one
  // congested peer still spread out.
  std::uint64_t h = splitmix64(0x72657472794a6974ULL ^ id);
  h = splitmix64(h ^ to);
  h = splitmix64(h ^ attempt);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return t * (1.0 + retry_.jitter * u);
}

void NotificationEngine::send_hop(MessageId id, PeerId from, PeerId to,
                                  std::uint32_t depth, std::uint32_t attempt,
                                  double start_s, std::size_t share) {
  auto& flight = in_flight_.at(id);
  auto& rec = records_.at(id);
  runtime::Message m;
  m.msg = id;
  m.from = from;
  m.to = to;
  m.fault_attempt = attempt;
  m.payload_bytes = payload_bytes_;
  m.send_s = start_s;
  m.uplink_share = static_cast<std::uint32_t>(share);
  const runtime::SendOutcome outcome = transport_.send(
      m, [this, id, from, to, depth, attempt,
          start_s](const runtime::Arrival& a) {
        deliver_hop(id, from, to, depth, attempt, start_s, a.arrive_s,
                    a.receiver);
        finish_event(id);
      });
  record_hop(rec, from, to, depth, attempt, /*failover=*/false,
             !flight.subscribers.contains(to) &&
                 !flight.tree.children(to).empty(),
             flight.subscribers.contains(to) && !outcome.dropped, start_s,
             outcome.arrive_s);
  if (outcome.dropped) {
    // No arrival event; the sender notices the missing ack at the deadline.
    ++flight.pending_events;
    queue_.schedule(start_s + timeout_for(id, to, attempt),
                    [this, id, from, to, depth, attempt,
                     start_s](double now) {
                      handle_hop_failure(id, from, to, depth, attempt,
                                         start_s, now);
                      finish_event(id);
                    });
    return;
  }
  flight.pending_events += outcome.copies;
}

void NotificationEngine::deliver_hop(MessageId id, PeerId from, PeerId to,
                                     std::uint32_t depth,
                                     std::uint32_t attempt, double send_s,
                                     double now_s,
                                     fault::ReceiveState receiver_state) {
  auto& flight = in_flight_.at(id);
  const bool responsive = receiver_state == fault::ReceiveState::kOk &&
                          sys_->peer_online(to);
  if (!responsive) {
    handle_hop_failure(id, from, to, depth, attempt, send_s, now_s);
    return;
  }
  if (observer_) observer_(to, true);
  // Only the first acked copy forwards onward — injected duplicates and
  // retransmission races must not multiply subtree traffic.
  const bool newly = flight.received.insert(to).second;
  if (flight.subscribers.contains(to)) {
    deliver_to_subscriber(id, to, depth, now_s);
  }
  if (newly) forward(id, to, now_s, depth);
}

void NotificationEngine::deliver_to_subscriber(MessageId id, PeerId to,
                                               std::uint32_t depth,
                                               double now_s) {
  auto& flight = in_flight_.at(id);
  auto& rec = records_.at(id);
  if (!rec.delivered_to.insert(to).second) {
    ++rec.duplicates_suppressed;
    ++stats_.duplicates_suppressed;
    duplicates_suppressed_counter().add(1);
    return;
  }
  rec.missed.erase(to);  // a late copy beat the replay queue — delivered
  if (mailbox_ != nullptr) mailbox_->on_delivered(id, to);
  ++rec.delivered;
  ++stats_.deliveries;
  deliveries_counter().add(1);
  delivery_hops_counter().add(static_cast<std::int64_t>(depth));
  static obs::Histogram& latency_hist =
      obs::MetricsRegistry::global().histogram("pubsub.delivery_latency_s");
  const double latency = now_s - rec.publish_time_s;
  latency_hist.observe(latency);
  rec.delivery_latency_s.add(latency);
  stats_.delivery_latency_s.add(latency);
  if (rec.delivered >= rec.wanted) rec.completed_at_s = now_s;
  if (check::enabled()) {
    check::enforce(check::validate_at_least_once(
        rec.delivered, rec.replays, rec.delivered_to.size(),
        flight.max_deliveries, rec.wanted, rec.completed_at_s.has_value()));
  }
}

void NotificationEngine::handle_hop_failure(MessageId id, PeerId from,
                                            PeerId to, std::uint32_t depth,
                                            std::uint32_t attempt,
                                            double send_s, double now_s) {
  // A timed-out transfer is availability evidence against the receiver —
  // the CMA input of the recovery layer (paper Sec. III-F).
  if (observer_) observer_(to, false);
  auto& flight = in_flight_.at(id);
  auto& rec = records_.at(id);
  if (retry_.enabled && attempt + 1 < retry_.max_attempts) {
    ++rec.retries;
    ++stats_.retries;
    retries_counter().add(1);
    // The resend fires when the sender's (lazy) timer expires; a failure
    // detected after the deadline resends immediately.
    const double resend_at =
        std::max(now_s, send_s + timeout_for(id, to, attempt));
    ++flight.pending_events;
    queue_.schedule(resend_at, [this, id, from, to, depth,
                                attempt](double now) {
      send_hop(id, from, to, depth, attempt + 1, now, /*share=*/1);
      finish_event(id);
    });
    return;
  }
  if (retry_.enabled) {
    ++stats_.retry_exhausted;
    retry_exhausted_counter().add(1);
  }
  lost_subtree(id, to, now_s);
}

void NotificationEngine::lost_subtree(MessageId id, PeerId dead,
                                      double now_s) {
  auto& flight = in_flight_.at(id);
  auto& rec = records_.at(id);
  // Every undelivered subscriber at or below the dead receiver loses its
  // tree route; reroute each via its disjoint backup path (paper Sec. V) or
  // queue it for store-and-forward replay.
  std::vector<PeerId> stack{dead};
  std::vector<PeerId> lost;
  while (!stack.empty()) {
    const PeerId n = stack.back();
    stack.pop_back();
    if (flight.subscribers.contains(n) && !rec.delivered_to.contains(n)) {
      lost.push_back(n);
    }
    for (const PeerId c : flight.tree.children(n)) stack.push_back(c);
  }
  const MultipathPlan* plan = retry_.enabled && retry_.failover
                                  ? multipath_for(rec.publisher)
                                  : nullptr;
  const FlatSet<PeerId> avoid{dead};
  for (const PeerId s : lost) {
    const std::vector<PeerId>* backup = nullptr;
    if (plan != nullptr) {
      for (const auto& entry : plan->paths) {
        if (entry.subscriber == s && entry.backup.size() >= 2) {
          backup = &entry.backup;
          break;
        }
      }
    }
    FailoverPath reroute;
    bool rerouted = false;
    if (backup != nullptr) {
      // Source-routed from the publisher. The backup avoids the primary
      // *plan* route's intermediates; when the engine tree routed
      // differently it may still cross the dead peer, in which case the
      // per-hop retries below fail and the subscriber falls back to replay.
      reroute = std::make_shared<const std::vector<PeerId>>(*backup);
    } else if (plan != nullptr) {
      // No precomputed disjoint backup: ask the overlay for a fresh route
      // that detours around the relay the failure detector declared dead.
      auto detour = sys_->route_avoiding(rec.publisher, s, avoid);
      if (detour.success && detour.path.size() >= 2) {
        reroute = std::make_shared<const std::vector<PeerId>>(
            std::move(detour.path));
        rerouted = true;
      } else if (detour.status == overlay::RouteStatus::kUnsupported) {
        route_avoid_unsupported_counter().add(1);
      } else {
        route_avoid_failed_counter().add(1);
      }
    }
    if (reroute != nullptr) {
      ++rec.failovers;
      ++stats_.failovers;
      failovers_counter().add(1);
      send_failover_hop(id, std::move(reroute), /*hop=*/0, /*attempt=*/0,
                        now_s, /*detour=*/rerouted);
    } else {
      mark_missed(id, s, now_s);
    }
  }
}

void NotificationEngine::send_failover_hop(MessageId id, FailoverPath path,
                                           std::size_t hop,
                                           std::uint32_t attempt,
                                           double start_s, bool detour) {
  auto& flight = in_flight_.at(id);
  auto& rec = records_.at(id);
  const PeerId from = (*path)[hop];
  const PeerId to = (*path)[hop + 1];
  // Detour paths draw from a third salt block so a detour edge shared with
  // the exhausted backup path cannot replay its consumed fates.
  const std::uint32_t salt_base = kFailoverAttemptBase * (detour ? 2u : 1u);
  runtime::Message m;
  m.msg = id;
  m.from = from;
  m.to = to;
  m.fault_attempt = attempt + salt_base;
  m.payload_bytes = payload_bytes_;
  m.send_s = start_s;
  m.uplink_share = 1;
  // Injected duplicates are not materialized on failover hops: the chain is
  // source-routed, so a second copy would double every remaining hop;
  // receiver dedup already covers the delivery semantics.
  m.collapse_duplicates = true;
  const runtime::SendOutcome outcome = transport_.send(
      m, [this, id, path, hop, attempt, start_s,
          detour](const runtime::Arrival& a) {
        deliver_failover_hop(id, path, hop, attempt, start_s, a.arrive_s,
                             detour, a.receiver);
        finish_event(id);
      });
  const bool last = hop + 2 == path->size();
  record_hop(rec, from, to, static_cast<std::uint32_t>(hop + 1), attempt,
             /*failover=*/true, !last, last && !outcome.dropped, start_s,
             outcome.arrive_s);
  if (outcome.dropped) {
    ++flight.pending_events;
    queue_.schedule(start_s + timeout_for(id, to, attempt),
                    [this, id, path = std::move(path), hop, attempt, start_s,
                     detour](double now) {
                      failover_hop_failure(id, path, hop, attempt, start_s,
                                           now, detour);
                      finish_event(id);
                    });
    return;
  }
  flight.pending_events += outcome.copies;
}

void NotificationEngine::deliver_failover_hop(
    MessageId id, const FailoverPath& path, std::size_t hop,
    std::uint32_t attempt, double send_s, double now_s, bool detour,
    fault::ReceiveState receiver_state) {
  auto& flight = in_flight_.at(id);
  auto& rec = records_.at(id);
  const PeerId to = (*path)[hop + 1];
  const bool responsive = receiver_state == fault::ReceiveState::kOk &&
                          sys_->peer_online(to);
  if (!responsive) {
    failover_hop_failure(id, path, hop, attempt, send_s, now_s, detour);
    return;
  }
  if (observer_) observer_(to, true);
  if (hop + 2 == path->size()) {
    deliver_to_subscriber(id, to, static_cast<std::uint32_t>(hop + 1),
                          now_s);
    return;
  }
  // Intermediates only relay; tree-based delivery to them (if they are
  // subscribers at all) happens on their own tree routes.
  if (!flight.subscribers.contains(to)) {
    ++rec.relay_forwards;
    ++stats_.relay_forwards;
    relay_forwards_counter().add(1);
  }
  send_failover_hop(id, path, hop + 1, /*attempt=*/0, now_s, detour);
}

void NotificationEngine::failover_hop_failure(MessageId id,
                                              const FailoverPath& path,
                                              std::size_t hop,
                                              std::uint32_t attempt,
                                              double send_s, double now_s,
                                              bool detour) {
  const PeerId to = (*path)[hop + 1];
  if (observer_) observer_(to, false);
  auto& flight = in_flight_.at(id);
  auto& rec = records_.at(id);
  if (retry_.enabled && attempt + 1 < retry_.max_attempts) {
    ++rec.retries;
    ++stats_.retries;
    retries_counter().add(1);
    const double resend_at =
        std::max(now_s, send_s + timeout_for(id, to, attempt));
    ++flight.pending_events;
    queue_.schedule(resend_at,
                    [this, id, path, hop, attempt, detour](double now) {
                      send_failover_hop(id, path, hop, attempt + 1, now,
                                        detour);
                      finish_event(id);
                    });
    return;
  }
  if (retry_.enabled) {
    ++stats_.retry_exhausted;
    retry_exhausted_counter().add(1);
  }
  // A backup route that died at an *intermediate* gets one fresh detour
  // around the casualty; failures of the detour itself (or of the final
  // hop, where the subscriber is the unresponsive party) terminate in
  // store-and-forward replay.
  const PeerId subscriber = path->back();
  if (!detour && to != subscriber && retry_.enabled && retry_.failover) {
    const FlatSet<PeerId> avoid{to};
    auto fresh = sys_->route_avoiding(rec.publisher, subscriber, avoid);
    if (fresh.success && fresh.path.size() >= 2) {
      ++rec.failovers;
      ++stats_.failovers;
      failovers_counter().add(1);
      send_failover_hop(id,
                        std::make_shared<const std::vector<PeerId>>(
                            std::move(fresh.path)),
                        /*hop=*/0, /*attempt=*/0, now_s, /*detour=*/true);
      return;
    }
    if (fresh.status == overlay::RouteStatus::kUnsupported) {
      route_avoid_unsupported_counter().add(1);
    } else {
      route_avoid_failed_counter().add(1);
    }
  }
  mark_missed(id, subscriber, now_s);
}

void NotificationEngine::mark_missed(MessageId id, PeerId subscriber,
                                     double t_s) {
  auto& rec = records_.at(id);
  if (rec.delivered_to.contains(subscriber)) return;
  if (!rec.missed.insert(subscriber).second) return;
  ++stats_.missed;
  missed_counter().add(1);
  if (!(retry_.enabled && retry_.replay)) return;
  missed_[subscriber].push_back(id);
  replay_fifo_.emplace_back(id, subscriber);
  ++replay_queued_;
  // Durability tier: replicate the queued copy to k mailbox peers so a
  // publisher crash (or a cap eviction below) cannot lose it.
  if (mailbox_ != nullptr) mailbox_->replicate(id, subscriber, rec.publisher, t_s);
  // SEL_REPLAY_CAP: oldest-first eviction keeps the publisher-local queue
  // bounded across long offline periods. FIFO entries already replayed are
  // stale — skipped without counting.
  while (retry_.replay_cap != 0 && replay_queued_ > retry_.replay_cap &&
         !replay_fifo_.empty()) {
    const auto [old_id, old_sub] = replay_fifo_.front();
    replay_fifo_.pop_front();
    const auto it = missed_.find(old_sub);
    if (it == missed_.end()) continue;
    const auto pos = std::find(it->second.begin(), it->second.end(), old_id);
    if (pos == it->second.end()) continue;
    it->second.erase(pos);
    if (it->second.empty()) missed_.erase(it);
    --replay_queued_;
    ++stats_.replay_evicted;
    replay_evicted_counter().add(1);
  }
}

std::size_t NotificationEngine::replay_missed(PeerId subscriber,
                                              double t_s) {
  std::size_t replayed = 0;
  const auto it = missed_.find(subscriber);
  if (it != missed_.end()) {
    std::unordered_set<MessageId> seen;
    for (const MessageId id : it->second) {
      const bool queued_twice = !seen.insert(id).second;
      auto& rec = records_.at(id);
      const bool already_delivered = rec.delivered_to.contains(subscriber);
      const bool delivering = !queued_twice && !already_delivered;
      if (check::enabled()) {
        check::enforce(check::validate_replay_dedup(
            id, subscriber, queued_twice, already_delivered, delivering));
      }
      if (!delivering) continue;
      rec.delivered_to.insert(subscriber);
      rec.missed.erase(subscriber);
      ++rec.replays;
      ++stats_.replays;
      replays_counter().add(1);
      ++replayed;
      // The mailbox copy is now redundant; resolving it keeps its pending
      // gauge tight and its replay stats honest.
      if (mailbox_ != nullptr) mailbox_->on_delivered(id, subscriber);
    }
    SEL_ASSERT(replay_queued_ >= it->second.size());
    replay_queued_ -= it->second.size();
    missed_.erase(it);
  }
  // Durability tier: messages whose local queued copy died with a crashed
  // publisher (or was cap-evicted) are still recoverable from the
  // subscriber's mailbox replicas. The `delivered` set stays the dedup
  // authority, so a message served by both tiers is delivered once.
  if (mailbox_ != nullptr) {
    for (const MessageId id : mailbox_->replay(subscriber, t_s)) {
      auto& rec = records_.at(id);
      const bool already_delivered = rec.delivered_to.contains(subscriber);
      const bool delivering = !already_delivered;
      if (check::enabled()) {
        check::enforce(check::validate_mailbox_replay(
            id, subscriber, /*entry_resolved=*/false, already_delivered,
            delivering));
      }
      if (!delivering) continue;
      rec.delivered_to.insert(subscriber);
      rec.missed.erase(subscriber);
      ++rec.replays;
      ++stats_.replays;
      replays_counter().add(1);
      ++stats_.mailbox_replays;
      mailbox_replays_counter().add(1);
      ++replayed;
    }
  }
  return replayed;
}

void NotificationEngine::on_peer_crashed(PeerId peer, double t_s) {
  // The crashed peer was the only local holder of its queued replays:
  // drop them. With a mailbox attached the replicas survive and
  // replay_missed() recovers them; without one the drop is the message
  // loss ROADMAP item 4 documents.
  // SEL_NONDET_OK(unordered-iteration): per-bucket erasure and counter
  // increments commute across iteration orders.
  for (auto it = missed_.begin(); it != missed_.end();) {
    auto& queued = it->second;
    const auto pred = [&](MessageId id) {
      return records_.at(id).publisher == peer;
    };
    const auto dropped =
        static_cast<std::size_t>(std::count_if(queued.begin(), queued.end(),
                                               pred));
    if (dropped != 0) {
      queued.erase(std::remove_if(queued.begin(), queued.end(), pred),
                   queued.end());
      SEL_ASSERT(replay_queued_ >= dropped);
      replay_queued_ -= dropped;
      stats_.replay_dropped_crash += dropped;
      replay_dropped_crash_counter().add(
          static_cast<std::int64_t>(dropped));
    }
    it = queued.empty() ? missed_.erase(it) : std::next(it);
  }
  if (mailbox_ != nullptr) mailbox_->on_peer_crashed(peer, t_s);
}

std::size_t NotificationEngine::pending_replays() const {
  std::size_t n = 0;
  // SEL_NONDET_OK(unordered-iteration): order-independent integer sum.
  for (const auto& [peer, msgs] : missed_) n += msgs.size();
  return n;
}

const MultipathPlan* NotificationEngine::multipath_for(PeerId publisher) {
  if (!planner_) return nullptr;
  auto it = multipath_cache_.find(publisher);
  if (it == multipath_cache_.end()) {
    it = multipath_cache_.emplace(publisher, planner_(publisher)).first;
  }
  return &it->second;
}

const MessageRecord& NotificationEngine::record(MessageId id) const {
  const auto it = records_.find(id);
  SEL_EXPECTS(it != records_.end());
  return it->second;
}

}  // namespace sel::pubsub

#include "pubsub/engine.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <utility>

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

// Message-plane telemetry: each registry counter mirrors one EngineStats
// field, summed over every engine in the process (flush_tallies()).
constexpr std::pair<const char*, std::size_t EngineStats::*> kTallies[] = {
    {"pubsub.publishes", &EngineStats::messages_published},
    {"pubsub.tree_builds", &EngineStats::tree_cache_misses},
    {"pubsub.deliveries", &EngineStats::deliveries},
    {"pubsub.delivery_hops", &EngineStats::delivery_hops},
    {"pubsub.relay_forwards", &EngineStats::relay_forwards},
    // Reliability layer, live only when a fault plan or retry policy is
    // attached.
    {"pubsub.retries", &EngineStats::retries},
    {"pubsub.retry_exhausted", &EngineStats::retry_exhausted},
    {"pubsub.failovers", &EngineStats::failovers},
    {"pubsub.replays", &EngineStats::replays},
    {"pubsub.duplicates_suppressed", &EngineStats::duplicates_suppressed},
    {"pubsub.missed", &EngineStats::missed},
    {"pubsub.replay_evicted", &EngineStats::replay_evicted},
    {"pubsub.replay_dropped_crash", &EngineStats::replay_dropped_crash},
    {"pubsub.mailbox_replays", &EngineStats::mailbox_replays},
    // Detour outcomes (fault.* family: reliability-plane telemetry). An
    // unsupported answer means the overlay cannot route around peers at all
    // (capability absent) — a different signal from a detour that was
    // attempted and found no live path.
    {"fault.route_avoid_failed", &EngineStats::route_avoid_failed},
    {"fault.route_avoid_unsupported", &EngineStats::route_avoid_unsupported},
};

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

// Resend ladder of every reliable hop: the ack timeout doubles per failed
// attempt and is stretched by up to kJitter of itself.
constexpr double kBackoff = 2.0;
constexpr double kJitter = 0.2;

}  // namespace

NotificationEngine::NotificationEngine(const overlay::PubSubSystem& sys,
                                       const net::NetworkModel& net,
                                       double payload_bytes)
    : sys_(&sys),
      payload_bytes_(payload_bytes),
      transport_(net),
      delivery_latency_s_(obs::MetricsRegistry::global().histogram(
          "pubsub.delivery_latency_s")) {
  SEL_EXPECTS(payload_bytes > 0.0);
  set_runtime_options({});
  warn_unknown_sel_env_once();
  flush_tallies();  // registers the kTallies counters
}

void NotificationEngine::set_runtime_options(runtime::Options options) {
  // Mid-flight reconfiguration would change pending arrival times under the
  // protocol's feet; the engine must be quiescent and unused.
  SEL_EXPECTS(next_id_ == 1 && queue_.idle());
  queue_ = runtime::EventEngine(options.tie_seed);
  queue_.set_drain_hook(
      [](void* self) {
        static_cast<NotificationEngine*>(self)->flush_tallies();
      },
      this);
}

NotificationEngine::~NotificationEngine() { flush_tallies(); }

void NotificationEngine::flush_tallies() noexcept {
  // All registered by the first engine, so report schemas don't depend on
  // whether a given seed ever retried, evicted or detoured.
  static const auto counters = [] {
    std::array<obs::Counter*, std::size(kTallies)> c{};
    for (std::size_t i = 0; i < c.size(); ++i) {
      c[i] = &obs::MetricsRegistry::global().counter(kTallies[i].first);
    }
    return c;
  }();
  transport_.flush_tallies();
  for (std::size_t i = 0; i < counters.size(); ++i) {
    const auto field = kTallies[i].second;
    if (stats_.*field == flushed_.*field) continue;
    counters[i]->add(
        static_cast<std::int64_t>(stats_.*field - flushed_.*field));
    flushed_.*field = stats_.*field;
  }
  delivery_latency_s_.flush();
}

const NotificationEngine::SharedTree& NotificationEngine::tree_for(
    PeerId publisher) {
  // Cached per publisher until invalidate_trees().
  const auto cached = tree_cache_.find(publisher);
  if (cached != tree_cache_.end()) {
    ++stats_.tree_cache_hits;
    return cached->second;
  }
  SEL_TRACE_SCOPE("pubsub.build_tree");
  ++stats_.tree_cache_misses;
  auto entry = std::make_shared<TreeEntry>(sys_->build_tree(publisher));
  const DisseminationTree& tree = entry->tree;
  // Every freshly built dissemination tree must be acyclic with one parent
  // per node — the structure exactly-once delivery rides on.
  if (check::enabled(check::Level::kFull)) {
    check::enforce(check::validate_tree(tree));
  }
  entry->subscribers = sys_->subscribers_of(publisher);
  const std::size_t n = tree.node_count();
  entry->subscribed.resize(n);
  entry->edge_s.resize(n);
  runtime::Message edge;
  edge.payload_bytes = payload_bytes_;
  for (Pos p = 0; p < n; ++p) {
    entry->subscribed[p] = entry->subscribers.contains(tree.peer_at(p)) ? 1 : 0;
    entry->max_deliveries += entry->subscribed[p];
    // Every child of p shares p's uplink: the perfect wire's transfer time
    // of each tree edge, computed once instead of once per message.
    const auto kids = tree.children_at(p);
    edge.from = tree.peer_at(p);
    edge.uplink_share = static_cast<std::uint32_t>(kids.size());
    for (const Pos c : kids) {
      edge.to = tree.peer_at(c);
      entry->edge_s[c] = transport_.transfer_time_s(edge);
    }
  }
  return tree_cache_.emplace(publisher, std::move(entry)).first->second;
}

MessageId NotificationEngine::publish(PeerId publisher, double time_s) {
  SEL_EXPECTS(time_s >= queue_.now_s());
  const MessageId id = next_id_++;
  SharedTree entry = tree_for(publisher);

  if (records_.empty() || records_.back().size() == kRecordsPerChunk) {
    records_.emplace_back().reserve(kRecordsPerChunk);
  }
  MessageRecord& rec = records_.back().emplace_back();
  rec.id = id;
  rec.publisher = publisher;
  rec.trace = obs::ProvenanceTracer::global().begin_publish(id, publisher,
                                                            time_s);
  rec.publish_time_s = time_s;
  for (Pos p = 0; p < entry->tree.node_count(); ++p) {
    if (entry->subscribed[p] != 0 &&
        sys_->overlay().peer_online(entry->tree.peer_at(p))) {
      ++rec.wanted;
    }
  }
  stats_.wanted += rec.wanted;
  ++stats_.messages_published;

  Slot slot;
  if (free_slots_.empty()) {
    slot = static_cast<Slot>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  InFlight& flight = slots_[slot];
  flight.id = id;
  flight.tree = std::move(entry);
  in_flight_gauge().set(
      static_cast<double>(slots_.size() - free_slots_.size()));
  // SEL_MEM_BUDGET: publish grows the message plane's tracked state, so it
  // is the natural soft-fail point (two relaxed loads when the knob is off).
  check::check_memory_budget();
  // Store-and-forward: subscribers offline right now (in the tree or not)
  // get the message queued for replay on their return.
  if (retry_.enabled) {
    for (const PeerId s : flight.tree->subscribers) {
      if (!sys_->overlay().peer_online(s)) mark_missed(id, s, time_s);
    }
  }
  flight.pending_events = 1;  // the initial forward below
  queue_.schedule(time_s, [this, slot](double now) {
    forward(slot, /*node=*/0, now);
    finish_event(slot);
  });
  flush_tallies();
  return id;
}

void NotificationEngine::finish_event(Slot slot) {
  InFlight& flight = slots_[slot];
  SEL_ASSERT(flight.pending_events > 0);
  if (--flight.pending_events != 0) return;
  flight.tree.reset();
  flight.received.clear();
  flight.routes.clear();
  free_slots_.push_back(slot);
  const std::size_t live = slots_.size() - free_slots_.size();
  in_flight_gauge().set(static_cast<double>(live));
  if (live == 0) {
    // Idle: give the pool back, so in-flight state costs nothing between
    // bursts.
    slots_ = decltype(slots_){};
    free_slots_ = decltype(free_slots_){};
  }
}

void NotificationEngine::forward(Slot slot, Pos node, double start_s) {
  InFlight& flight = slots_[slot];
  const TreeEntry& entry = *flight.tree;
  const DisseminationTree& tree = entry.tree;
  const auto kids = tree.children_at(node);
  if (kids.empty()) return;
  auto& rec = record_of(flight.id);
  // A forwarding non-subscriber is a relay (the publisher itself excluded).
  if (node != 0 && entry.subscribed[node] == 0) count_relay(rec);
  if (reliable()) {
    for (const Pos child : kids) send_hop({slot, kTree, child, 0}, start_s);
    return;
  }
  // Perfect transfer plane: every scheduled hop arrives, delivery is
  // exactly-once by tree structure. Simultaneous sends split the uplink
  // across all children.
  runtime::Message m;
  m.msg = flight.id;
  m.from = tree.peer_at(node);
  m.payload_bytes = payload_bytes_;
  m.send_s = start_s;
  m.uplink_share = static_cast<std::uint32_t>(kids.size());
  for (const Pos child : kids) {
    m.to = tree.peer_at(child);
    const runtime::SendOutcome outcome =
        transport_.send(m, entry.edge_s[child]);
    // No fault plan reaches this branch (reliable() would be true), so the
    // hop always lands, exactly once.
    SEL_ASSERT(!outcome.dropped && outcome.copies == 1);
    queue_.schedule(outcome.arrive_s, [this, slot, child](double now) {
      arrive(slot, child, now);
    });
    ++flight.pending_events;
    if (rec.trace != 0) {
      // Relay status of the *receiver*: a non-subscriber that will forward
      // onward (non-subscriber leaves do not occur in subscriber-first
      // trees, so this matches tree.relay_nodes()).
      record_hop(
          rec, m.from, m.to, tree.depth_at(child), /*attempt=*/0,
          /*failover=*/false,
          entry.subscribed[child] == 0 && !tree.children_at(child).empty(),
          entry.subscribed[child] != 0 && sys_->overlay().peer_online(m.to),
          start_s, outcome.arrive_s);
    }
  }
}

void NotificationEngine::count_delivery(MessageRecord& rec, std::uint32_t depth,
                                        double now_s) {
  ++rec.delivered;
  ++stats_.deliveries;
  stats_.delivery_hops += depth;
  const double latency = now_s - rec.publish_time_s;
  delivery_latency_s_.observe(latency);
  rec.delivery_latency_s.add(latency);
  stats_.delivery_latency_s.add(latency);
  if (rec.delivered >= rec.wanted) rec.completed_at_s = now_s;
}

void NotificationEngine::arrive(Slot slot, Pos node, double now_s) {
  const InFlight& flight = slots_[slot];
  const TreeEntry& entry = *flight.tree;
  if (entry.subscribed[node] != 0 &&
      sys_->overlay().peer_online(entry.tree.peer_at(node))) {
    auto& r = record_of(flight.id);
    count_delivery(r, entry.tree.depth_at(node), now_s);
    if (check::enabled()) {
      check::enforce(check::validate_delivery_count(
          r.delivered, entry.max_deliveries, r.wanted,
          r.completed_at_s.has_value()));
    }
  }
  forward(slot, node, now_s);
  finish_event(slot);
}

// ---------------------------------------------------------------------------
// Reliable-mode hop ladder: tree edges and failover legs alike (Hop).
//
// Ack/timeout model: attempt k of a hop is sent at t0 with deadline
// t0 + timeout_for(k). A dropped message is detected at the deadline; an
// unresponsive receiver (stalled, crashed, churned offline) is detected at
// max(arrival, deadline). Detection either resends (attempt k+1, backoff
// grows the deadline) or — budget exhausted — gives the hop up (hop_failed).
// The sender's timer is lazy: a slow-but-successful arrival never spuriously
// retries, so each attempt has exactly one outcome and no ack-state table
// is needed. Duplicate deliveries still occur via the fault plan's
// duplicate class and are suppressed at the receiver.
//
// The wire itself — transfer times, hop fates, receiver-state draws — lives
// behind runtime::Transport; the engine owns the protocol reaction to each
// SendOutcome and receiver state.
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
  for (std::uint32_t i = 0; i < attempt; ++i) t *= kBackoff;
  // Deterministic jitter: a pure hash of (message, receiver, attempt), so
  // same-seed runs time out identically while concurrent retries to one
  // congested peer still spread out.
  std::uint64_t h = splitmix64(0x72657472794a6974ULL ^ id);
  h = splitmix64(h ^ to);
  h = splitmix64(h ^ attempt);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return t * (1.0 + kJitter * u);
}

NotificationEngine::HopEnds NotificationEngine::ends_of(const Hop& hop) const {
  const InFlight& flight = slots_[hop.slot];
  HopEnds ends;
  runtime::Message& m = ends.message;
  m.msg = flight.id;
  m.fault_attempt = hop.attempt;
  m.payload_bytes = payload_bytes_;
  if (hop.leg == kTree) {
    const TreeEntry& entry = *flight.tree;
    const DisseminationTree& tree = entry.tree;
    const Pos from = tree.parent_at(hop.index);
    m.from = tree.peer_at(from);
    m.to = tree.peer_at(hop.index);
    ends.depth = tree.depth_at(hop.index);
    ends.delivers = entry.subscribed[hop.index] != 0;
    ends.relay = !ends.delivers && !tree.children_at(hop.index).empty();
    // A first attempt shares the sender's uplink with all its children, as
    // the cached edge time assumes; a resend goes alone.
    if (hop.attempt == 0) {
      m.uplink_share =
          static_cast<std::uint32_t>(tree.children_at(from).size());
      ends.edge_s = entry.edge_s[hop.index];
    }
    return ends;
  }
  const Route& route = flight.routes[hop.leg];
  m.from = route.hops[hop.index];
  m.to = route.hops[hop.index + 1];
  ends.depth = hop.index + 1;
  ends.delivers = hop.index + 2 == route.hops.size();
  ends.relay = !ends.delivers;
  // Detour routes draw from a third salt block so a detour edge shared with
  // the exhausted backup route cannot replay its consumed fates.
  m.fault_attempt += kFailoverAttemptBase * (route.detour ? 2u : 1u);
  // Injected duplicates are not materialized on failover hops: the chain is
  // source-routed, so a second copy would double every remaining hop;
  // receiver dedup already covers the delivery semantics.
  m.collapse_duplicates = true;
  return ends;
}

void NotificationEngine::send_hop(Hop hop, double start_s) {
  InFlight& flight = slots_[hop.slot];
  HopEnds ends = ends_of(hop);
  runtime::Message& m = ends.message;
  m.send_s = start_s;
  const runtime::SendOutcome outcome =
      ends.edge_s ? transport_.send(m, *ends.edge_s) : transport_.send(m);
  for (std::uint32_t c = 0; c < outcome.copies; ++c) {
    queue_.schedule(outcome.arrive_s, [this, hop, start_s](double now) {
      deliver_hop(hop, start_s, now);
      finish_event(hop.slot);
    });
  }
  record_hop(record_of(flight.id), m.from, m.to, ends.depth, hop.attempt,
             /*failover=*/hop.leg != kTree, ends.relay,
             ends.delivers && !outcome.dropped, start_s, outcome.arrive_s);
  if (outcome.dropped) {
    // No arrival event; the sender notices the missing ack at the deadline.
    ++flight.pending_events;
    queue_.schedule(start_s + timeout_for(flight.id, m.to, hop.attempt),
                    [this, hop, start_s](double now) {
                      hop_failed(hop, start_s, now);
                      finish_event(hop.slot);
                    });
    return;
  }
  flight.pending_events += outcome.copies;
}

void NotificationEngine::deliver_hop(Hop hop, double send_s, double now_s) {
  InFlight& flight = slots_[hop.slot];
  const HopEnds ends = ends_of(hop);
  const PeerId to = ends.message.to;
  // Receiver-side draw at the arrival event — stall windows and crash state
  // advance in deterministic event order.
  const bool responsive =
      transport_.receive(flight.id, to, now_s) == fault::ReceiveState::kOk &&
      sys_->overlay().peer_online(to);
  if (!responsive) {
    hop_failed(hop, send_s, now_s);
    return;
  }
  if (observer_) observer_(to, true);
  // Only the first acked copy of a tree hop forwards onward — injected
  // duplicates and retransmission races must not multiply subtree traffic.
  // A route's intermediates only relay: tree-based delivery to them (if
  // they are subscribers at all) happens on their own tree routes.
  bool onward = !ends.delivers;
  if (hop.leg == kTree) {
    if (flight.received.empty()) {
      flight.received.assign(flight.tree->tree.node_count(), 0);
    }
    onward = flight.received[hop.index] == 0;
    flight.received[hop.index] = 1;
  }
  if (ends.delivers) deliver_to_subscriber(hop.slot, to, ends.depth, now_s);
  if (!onward) return;
  if (hop.leg == kTree) {
    forward(hop.slot, hop.index, now_s);
    return;
  }
  if (!flight.tree->subscribers.contains(to)) {
    count_relay(record_of(flight.id));
  }
  send_hop({hop.slot, hop.leg, hop.index + 1, 0}, now_s);
}

void NotificationEngine::deliver_to_subscriber(Slot slot, PeerId to,
                                               std::uint32_t depth,
                                               double now_s) {
  const InFlight& flight = slots_[slot];
  const MessageId id = flight.id;
  auto& rec = record_of(id);
  if (!rec.delivered_to.insert(to).second) {
    ++rec.duplicates_suppressed;
    ++stats_.duplicates_suppressed;
    return;
  }
  rec.missed.erase(to);  // a late copy beat the replay queue — delivered
  if (mailbox_ != nullptr) mailbox_->on_delivered(id, to);
  count_delivery(rec, depth, now_s);
  if (check::enabled()) {
    check::enforce(check::validate_at_least_once(
        rec.delivered, rec.replays, rec.delivered_to.size(),
        flight.tree->max_deliveries, rec.wanted,
        rec.completed_at_s.has_value()));
  }
}

void NotificationEngine::hop_failed(Hop hop, double send_s, double now_s) {
  InFlight& flight = slots_[hop.slot];
  const PeerId to = ends_of(hop).message.to;
  // A timed-out transfer is availability evidence against the receiver —
  // the CMA input of the recovery layer (paper Sec. III-F).
  if (observer_) observer_(to, false);
  if (retry_.enabled && hop.attempt + 1 < retry_.max_attempts) {
    ++record_of(flight.id).retries;
    ++stats_.retries;
    // The resend fires when the sender's (lazy) timer expires; a failure
    // detected after the deadline resends immediately.
    const double resend_at =
        std::max(now_s, send_s + timeout_for(flight.id, to, hop.attempt));
    ++flight.pending_events;
    queue_.schedule(resend_at, [this, hop](double now) {
      send_hop({hop.slot, hop.leg, hop.index, hop.attempt + 1}, now);
      finish_event(hop.slot);
    });
    return;
  }
  if (retry_.enabled) ++stats_.retry_exhausted;
  if (hop.leg == kTree) {
    lost_subtree(hop.slot, hop.index, now_s);
    return;
  }
  // A backup route that died at an *intermediate* gets one fresh detour
  // around the casualty; failures of the detour itself (or of the final
  // hop, where the subscriber is the unresponsive party) terminate in
  // store-and-forward replay.
  const Route& route = flight.routes[hop.leg];
  const PeerId subscriber = route.hops.back();
  if (!route.detour && to != subscriber && retry_.enabled &&
      try_detour(hop.slot, subscriber, to, now_s)) {
    return;
  }
  mark_missed(flight.id, subscriber, now_s);
}

void NotificationEngine::lost_subtree(Slot slot, Pos dead, double now_s) {
  const InFlight& flight = slots_[slot];
  const TreeEntry& entry = *flight.tree;
  const DisseminationTree& tree = entry.tree;
  auto& rec = record_of(flight.id);
  // Every undelivered subscriber at or below the dead receiver loses its
  // tree route; reroute each via its disjoint backup path (paper Sec. V) or
  // queue it for store-and-forward replay.
  std::vector<Pos> stack{dead};
  std::vector<PeerId> lost;
  while (!stack.empty()) {
    const Pos n = stack.back();
    stack.pop_back();
    if (entry.subscribed[n] != 0 &&
        !rec.delivered_to.contains(tree.peer_at(n))) {
      lost.push_back(tree.peer_at(n));
    }
    for (const Pos c : tree.children_at(n)) stack.push_back(c);
  }
  const MultipathPlan* plan =
      retry_.enabled ? multipath_for(rec.publisher) : nullptr;
  for (const PeerId s : lost) {
    if (plan != nullptr) {
      const auto path = std::find_if(
          plan->paths.begin(), plan->paths.end(), [s](const auto& p) {
            return p.subscriber == s && p.backup.size() >= 2;
          });
      if (path != plan->paths.end()) {
        // Source-routed from the publisher. The backup avoids the primary
        // *plan* route's intermediates; when the engine tree routed
        // differently it may still cross the dead peer, in which case the
        // per-hop retries fail and the subscriber falls back to replay.
        start_route(slot, Route{path->backup, /*detour=*/false}, now_s);
        continue;
      }
      // No precomputed disjoint backup: ask the overlay for a fresh route
      // that detours around the relay the failure detector declared dead.
      if (try_detour(slot, s, tree.peer_at(dead), now_s)) continue;
    }
    mark_missed(flight.id, s, now_s);
  }
}

bool NotificationEngine::try_detour(Slot slot, PeerId subscriber, PeerId dead,
                                    double now_s) {
  const PeerId publisher = record_of(slots_[slot].id).publisher;
  auto detour = sys_->overlay().route_avoiding(publisher, subscriber,
                                               FlatSet<PeerId>{dead});
  if (detour.success && detour.path.size() >= 2) {
    start_route(slot, Route{std::move(detour.path), /*detour=*/true}, now_s);
    return true;
  }
  if (detour.status == overlay::RouteStatus::kUnsupported) {
    ++stats_.route_avoid_unsupported;
  } else {
    ++stats_.route_avoid_failed;
  }
  return false;
}

void NotificationEngine::start_route(Slot slot, Route route, double now_s) {
  InFlight& flight = slots_[slot];
  ++record_of(flight.id).failovers;
  ++stats_.failovers;
  flight.routes.push_back(std::move(route));
  const auto leg = static_cast<std::uint32_t>(flight.routes.size() - 1);
  send_hop({slot, leg, /*index=*/0, /*attempt=*/0}, now_s);
}

void NotificationEngine::mark_missed(MessageId id, PeerId subscriber,
                                     double t_s) {
  auto& rec = record_of(id);
  if (rec.delivered_to.contains(subscriber)) return;
  if (!rec.missed.insert(subscriber).second) return;
  ++stats_.missed;
  if (!retry_.enabled) return;
  missed_[subscriber].push_back(id);
  replay_fifo_.emplace_back(id, subscriber);
  ++replay_queued_;
  // Durability tier: replicate the queued copy to k mailbox peers so a
  // publisher crash (or a cap eviction below) cannot lose it.
  if (mailbox_ != nullptr) {
    mailbox_->replicate(id, subscriber, rec.publisher, t_s);
  }
  // replay_cap: oldest-first eviction keeps the publisher-local queue
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
  }
}

std::size_t NotificationEngine::replay_missed(PeerId subscriber,
                                              double t_s) {
  std::size_t replayed = 0;
  const auto replay = [&](MessageRecord& rec) {
    rec.delivered_to.insert(subscriber);
    rec.missed.erase(subscriber);
    ++rec.replays;
    ++stats_.replays;
    ++replayed;
  };
  const auto it = missed_.find(subscriber);
  if (it != missed_.end()) {
    std::unordered_set<MessageId> seen;
    for (const MessageId id : it->second) {
      const bool queued_twice = !seen.insert(id).second;
      auto& rec = record_of(id);
      const bool already_delivered = rec.delivered_to.contains(subscriber);
      const bool delivering = !queued_twice && !already_delivered;
      if (check::enabled()) {
        check::enforce(check::validate_replay_dedup(
            id, subscriber, queued_twice, already_delivered, delivering));
      }
      if (!delivering) continue;
      replay(rec);
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
      auto& rec = record_of(id);
      const bool already_delivered = rec.delivered_to.contains(subscriber);
      if (check::enabled()) {
        check::enforce(check::validate_mailbox_replay(
            id, subscriber, /*entry_resolved=*/false, already_delivered,
            /*delivering=*/!already_delivered));
      }
      if (already_delivered) continue;
      replay(rec);
      ++stats_.mailbox_replays;
    }
  }
  flush_tallies();
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
    const std::size_t dropped = std::erase_if(it->second, [&](MessageId id) {
      return record_of(id).publisher == peer;
    });
    SEL_ASSERT(replay_queued_ >= dropped);
    replay_queued_ -= dropped;
    stats_.replay_dropped_crash += dropped;
    it = it->second.empty() ? missed_.erase(it) : std::next(it);
  }
  if (mailbox_ != nullptr) mailbox_->on_peer_crashed(peer, t_s);
  flush_tallies();
}

const MultipathPlan* NotificationEngine::multipath_for(PeerId publisher) {
  if (!planner_) return nullptr;
  const auto [it, inserted] = multipath_cache_.try_emplace(publisher);
  if (inserted) it->second = planner_(publisher);
  return &it->second;
}

const MessageRecord& NotificationEngine::record(MessageId id) const {
  SEL_EXPECTS(id >= 1 && id < next_id_);
  return records_[(id - 1) / kRecordsPerChunk][(id - 1) % kRecordsPerChunk];
}

}  // namespace sel::pubsub

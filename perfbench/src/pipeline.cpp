#include "pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "graph/profiles.hpp"
#include "net/network_model.hpp"
#include "obs/memory.hpp"
#include "overlay/system.hpp"
#include "pubsub/engine.hpp"
#include "pubsub/mailbox.hpp"
#include "pubsub/multipath.hpp"
#include "runtime/runtime.hpp"
#include "select/protocol.hpp"
#include "sim/churn.hpp"
#include "sim/workload.hpp"

namespace perfbench {

namespace {

using sel::derive_seed;
using sel::overlay::PeerId;
using Scope = Recorder::Scope;

// Why each workload exists is recorded in BENCHMARK.json. All three are
// open loops: posts arrive on the Jiang virtual-time schedule whatever the
// engine does. Graph, network model, posting rates and protocol take the
// dataset seed directly, as the repository's examples and benches do
// (dataset_runner and bench_chaos use 42, notification_feed 2024).
//
// Every pass takes 2 to 4 s, so that a run holds ten or more of them: the
// speed of a shared box swings by a fifth for ten seconds at a time, and
// only a median over many short passes is steady from run to run.
constexpr WorkloadSpec kWorkloads[] = {
    // Construction dominates; the probe stream checks the built overlay.
    // 12,000 posts make its dissemination a fifth of the pass: a shorter
    // phase spreads more between runs.
    {.name = "build", .profile = "facebook", .peers = 2000,
     .dataset_seed = 42, .horizon_s = 480.0, .max_posts = 12'000},
    // The message plane dominates: about one hour of posts, perfect
    // transfer, everyone online, so almost every publish hits the tree
    // cache.
    {.name = "feed", .profile = "facebook", .peers = 1000,
     .dataset_seed = 2024, .horizon_s = 3600.0,
     .max_notifications = 1'000'000},
    // The reliable path under the default fault mix: every epoch misses the
    // tree cache and runs the select maintenance path. Epochs, churn and
    // retry settings are bench_chaos's. The notification cap sizes a pass
    // (about 4 s of dissemination, most of it tree rebuilds and failover
    // planning for about 1,500 posts); the posting rate is derived from it,
    // so posts fill all 48 epochs.
    {.name = "chaos", .profile = "facebook", .peers = 1000,
     .dataset_seed = 42, .median_posts_per_hour = 0.0,
     .horizon_s = 4 * 3600.0, .max_notifications = 48'000, .chaos = true,
     .epoch_s = 300.0},
};

/// Derived-rate streams are drawn this much denser than the cap implies, so
/// that the cap binds on every seed: a stream's owed notifications vary by
/// about 4% between seeds.
constexpr double kOversample = 1.25;

struct Inputs {
  sel::graph::SocialGraph g;
  std::optional<sel::net::NetworkModel> net;
  std::vector<sel::sim::Post> posts;
};

void make_inputs(const WorkloadSpec& spec, std::uint64_t seed, Recorder& rec,
                 Inputs& in) {
  {
    Scope s(rec, "graph.generate");
    in.g = sel::graph::make_dataset_graph(
        sel::graph::profile_by_name(spec.profile), spec.peers,
        spec.dataset_seed);
  }
  {
    Scope s(rec, "net.model");
    in.net.emplace(in.g.num_nodes(), spec.dataset_seed);
  }
  Scope s(rec, "sim.posts");
  sel::sim::WorkloadParams params;
  params.median_posts_per_hour = spec.median_posts_per_hour;
  const bool derived = params.median_posts_per_hour == 0.0;
  if (derived) {
    // Rates scale with the median and their draws do not depend on it, so
    // a unit-median workload gives the owed notifications per second. The
    // stream is drawn kOversample times denser and thinned to the cap below.
    params.median_posts_per_hour = 1.0;
    const sel::sim::PublicationWorkload unit(in.g, params, spec.dataset_seed);
    double owed_per_s = 0.0;
    for (PeerId u = 0; u < in.g.num_nodes(); ++u) {
      owed_per_s += unit.rate_per_s(u) *
                    static_cast<double>(in.g.neighbors(u).size());
    }
    params.median_posts_per_hour =
        kOversample * static_cast<double>(spec.max_notifications) /
        (owed_per_s * spec.horizon_s);
  }
  const sel::sim::PublicationWorkload workload(in.g, params,
                                               spec.dataset_seed);
  in.posts = workload.generate(spec.horizon_s, derive_seed(seed, 3));
  if (spec.max_posts != 0 && in.posts.size() > spec.max_posts) {
    in.posts.resize(spec.max_posts);
  }
  if (derived) {
    // Thin at random: every post is as likely to stay, so the kept stream
    // is a Poisson stream over the whole horizon at the derived rate.
    sel::Rng rng(derive_seed(seed, 7));
    sel::shuffle(in.posts, rng);
  }
  if (spec.max_notifications != 0) {
    std::size_t owed = 0;
    std::size_t keep = 0;
    for (; keep < in.posts.size(); ++keep) {
      owed += in.g.neighbors(in.posts[keep].publisher).size();
      if (owed > spec.max_notifications) break;
    }
    in.posts.resize(keep);
  }
  if (derived) {
    std::sort(in.posts.begin(), in.posts.end(),
              [](const sel::sim::Post& a, const sel::sim::Post& b) {
                return a.time_s < b.time_s;
              });
  }
}

/// The phases of SelectSystem::build(), called one by one so the gossip
/// rounds are timed apart from the join. Traced, each round is its own span.
void build(sel::core::SelectSystem& sys, Recorder& rec, PassResult& out) {
  {
    Scope s(rec, "select.join");
    sys.join_all();
  }
  const auto start = Clock::now();
  std::size_t rounds = 0;
  if (!rec.enabled()) {
    rounds = sys.run_to_convergence();
  } else {
    std::size_t link_changes = 0;
    double movement = 0.0;
    while (rounds < sys.params().max_rounds && !sys.converged()) {
      {
        Scope s(rec, "select.round");
        sys.run_round();
      }
      ++rounds;
      link_changes += sys.last_round_link_changes();
      movement += sys.last_round_movement();
    }
    out.traced_counts["select.link_changes"] =
        static_cast<double>(link_changes);
    out.traced_counts["select.movement"] = movement;
  }
  out.round_s = seconds_since(start);
  out.counts["select.rounds"] = static_cast<double>(rounds);
  out.counts["select.converged"] = sys.converged() ? 1.0 : 0.0;
  out.counts["select.tie_hits"] = static_cast<double>(sys.tie_stats().hits);
  out.counts["select.tie_merges"] =
      static_cast<double>(sys.tie_stats().merges());
}

/// Traced only: at the start of each epoch, one PubSubSystem::build_tree
/// per distinct online publisher of the epoch's posts, on the overlay state
/// those publishes see. These are the trees the engine rebuilds on its
/// cache misses, so the probes time the rebuild share of publish.
struct TreeProbe {
  double trees = 0.0;
  double nodes = 0.0;
  double depth_sum = 0.0;
  double receivers = 0.0;

  void run(const sel::overlay::PubSubSystem& ps,
           const sel::core::SelectSystem& sys,
           std::span<const sel::sim::Post> posts, Recorder& rec) {
    Scope probe(rec, "overlay.probe");
    std::vector<PeerId> publishers;
    for (const auto& post : posts) {
      if (sys.peer_online(post.publisher)) publishers.push_back(post.publisher);
    }
    std::sort(publishers.begin(), publishers.end());
    publishers.erase(std::unique(publishers.begin(), publishers.end()),
                     publishers.end());
    for (const PeerId pub : publishers) {
      std::optional<sel::overlay::DisseminationTree> tree;
      {
        Scope s(rec, "overlay.build_tree");
        tree.emplace(ps.build_tree(pub));
      }
      trees += 1.0;
      nodes += static_cast<double>(tree->node_count());
      for (const PeerId p : tree->nodes()) {
        if (p == tree->root()) continue;
        depth_sum += static_cast<double>(tree->depth(p));
        receivers += 1.0;
      }
    }
  }

  void report(PassResult& out) const {
    out.traced_counts["overlay.tree_probes"] = trees;
    out.traced_counts["overlay.tree_nodes"] = trees > 0.0 ? nodes / trees : 0.0;
    out.traced_counts["overlay.tree_depth_mean"] =
        receivers > 0.0 ? depth_sum / receivers : 0.0;
  }
};

/// Replays the post stream through the notification engine and drains it.
/// Chaos adds, per epoch: session churn (with store-and-forward replay for
/// returning peers), a maintenance round and a tree-cache invalidation.
void disseminate(const WorkloadSpec& spec, std::uint64_t seed,
                 const Inputs& in, sel::core::SelectSystem& sys,
                 Recorder& rec, PassResult& out) {
  namespace pubsub = sel::pubsub;
  const auto start = Clock::now();
  const std::size_t n = in.g.num_nodes();
  const sel::overlay::PubSubSystem ps(sys);
  std::optional<sel::fault::FaultPlan> plan;
  pubsub::NotificationEngine engine(ps, *in.net);
  engine.set_runtime_options(sel::runtime::Options{});
  std::optional<pubsub::MailboxManager> mailbox;
  std::optional<sel::sim::SessionChurn> churn;
  std::size_t plans = 0;
  if (spec.chaos) {
    plan.emplace(sel::fault::FaultSpec::parse(kChaosMix), derive_seed(seed, 4),
                 n);
    engine.set_fault_plan(&*plan);
    mailbox.emplace(engine.event_engine(), sys, *in.net,
                    pubsub::MailboxPolicy{}, derive_seed(seed, 5));
    mailbox->set_fault_plan(&*plan);
    mailbox->set_availability_fn([&sys](PeerId p) { return sys.cma_of(p); });
    engine.set_mailbox(&*mailbox);
    pubsub::RetryPolicy policy;
    policy.enabled = true;
    policy.ack_timeout_s = 2.0;  // bench_chaos's cap on the 5 s default
    engine.set_retry_policy(policy);
    engine.set_multipath_planner([&](PeerId publisher) {
      Scope s(rec, "pubsub.multipath_plan");
      ++plans;
      return pubsub::plan_multipath(sys, in.g, publisher);
    });
    engine.set_availability_observer([&sys](PeerId p, bool responsive) {
      sys.observe_availability(p, responsive);
    });
    sel::sim::SessionChurn::Params churn_params;
    churn_params.session_median_s = 3600.0;
    churn_params.offline_median_s = 600.0;
    churn.emplace(n, churn_params, derive_seed(seed, 6));
  }

  auto& events = engine.event_engine();
  std::size_t fired = 0;
  const auto drain_to = [&](double t_s) {
    Scope s(rec, "runtime.drain");
    fired += events.run_until(t_s);
  };
  std::size_t replay_calls = 0;
  const auto replay = [&](PeerId p, double t_s) {
    Scope s(rec, "pubsub.replay");
    ++replay_calls;
    engine.replay_missed(p, t_s);
  };
  std::vector<pubsub::MessageId> ids;
  ids.reserve(in.posts.size());
  /// Chaos: per message, the subscribers offline when it was published
  /// (ascending). They are owed the post but are not among its operations.
  std::vector<std::vector<PeerId>> offline_at_publish;
  std::size_t skipped = 0;
  std::size_t queue_depth_max = 0;
  std::size_t maintenance_rounds = 0;
  std::size_t epochs_with_posts = 0;
  TreeProbe probe;
  double probe_s = 0.0;  ///< kept out of disseminate_s
  const std::size_t epochs =
      spec.chaos
          ? static_cast<std::size_t>(std::ceil(spec.horizon_s / spec.epoch_s))
          : 1;
  std::size_t next = 0;
  for (std::size_t e = 0; e < epochs; ++e) {
    const double t0 = static_cast<double>(e) * spec.epoch_s;
    const double t1 = spec.chaos ? t0 + spec.epoch_s
                                 : std::numeric_limits<double>::infinity();
    if (spec.chaos) {
      {
        Scope s(rec, "sim.churn");
        churn->advance_to(t0);
        for (const auto p : churn->last_departures()) {
          sys.set_peer_online(p, false);
        }
        for (const auto p : churn->last_arrivals()) {
          if (plan->crashed(p)) continue;
          sys.set_peer_online(p, true);
          replay(p, t0);
        }
        for (const auto c : plan->crashed_peers()) sys.set_peer_online(c, false);
      }
      {
        Scope s(rec, "select.maintenance");
        sys.maintenance_round();
        ++maintenance_rounds;
      }
      engine.invalidate_trees();
    }
    if (rec.enabled()) {
      const auto probe_start = Clock::now();
      const auto epoch_end = std::partition_point(
          in.posts.begin() + static_cast<std::ptrdiff_t>(next), in.posts.end(),
          [t1](const sel::sim::Post& post) { return post.time_s < t1; });
      probe.run(ps, sys,
                {in.posts.begin() + static_cast<std::ptrdiff_t>(next),
                 epoch_end},
                rec);
      probe_s += seconds_since(probe_start);
    }
    const std::size_t published_before = ids.size();
    for (; next < in.posts.size() && in.posts[next].time_s < t1; ++next) {
      const auto& post = in.posts[next];
      drain_to(post.time_s);
      // An offline (or crashed) user posts nothing while away.
      if (!sys.peer_online(post.publisher)) {
        ++skipped;
        continue;
      }
      if (spec.chaos) {
        auto& offline = offline_at_publish.emplace_back();
        for (const PeerId s : ps.subscribers_of(post.publisher)) {
          if (!sys.peer_online(s)) offline.push_back(s);
        }
      }
      {
        Scope s(rec, "pubsub.publish");
        ids.push_back(engine.publish(post.publisher, post.time_s));
      }
      queue_depth_max = std::max(queue_depth_max, engine.in_flight());
    }
    if (ids.size() > published_before) ++epochs_with_posts;
    if (spec.chaos) drain_to(t1);
  }
  const auto drain_all = [&] {
    Scope s(rec, "runtime.drain");
    fired += events.run();
  };
  drain_all();
  if (spec.chaos) {
    // End of the run: every live peer reconnects once and collects what it
    // missed, so a notification fails only if it is lost for good.
    const double t_end = events.now_s();
    for (PeerId p = 0; p < n; ++p) {
      if (plan->crashed(p)) continue;
      sys.set_peer_online(p, true);
      replay(p, t_end);
    }
    drain_all();
  }
  out.disseminate_s = seconds_since(start) - probe_s;
  probe.report(out);

  // Operations: (message, online subscriber) notifications. In perfect
  // transfer the undelivered ones fail. In chaos a notification is
  // delivered if it reached its subscriber in flight or by replay before
  // the run ended; one still missed fails, unless its subscriber crashed
  // for good — no protocol reaches a dead peer, so those count apart.
  const auto& st = engine.stats();
  std::size_t delivered = 0;
  std::size_t failed = 0;
  std::size_t lost_to_crash = 0;
  if (spec.chaos) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto& offline = offline_at_publish[i];
      const auto online_at_publish = [&offline](PeerId s) {
        return !std::binary_search(offline.begin(), offline.end(), s);
      };
      const auto& r = engine.record(ids[i]);
      delivered += static_cast<std::size_t>(std::count_if(
          r.delivered_to.begin(), r.delivered_to.end(), online_at_publish));
      for (const PeerId s : r.missed) {
        if (online_at_publish(s)) ++(plan->crashed(s) ? lost_to_crash : failed);
      }
    }
  } else {
    delivered = std::min(st.deliveries, st.wanted);
    failed = st.wanted - delivered;
  }

  // Eq. 1 completion per message: last subscriber reached minus publish.
  std::vector<double> notify_s;
  notify_s.reserve(ids.size());
  std::size_t incomplete = 0;
  for (const auto id : ids) {
    const auto& r = engine.record(id);
    if (r.wanted == 0) continue;
    if (r.completed_at_s.has_value()) {
      notify_s.push_back(*r.completed_at_s - r.publish_time_s);
    } else {
      ++incomplete;
    }
  }

  auto& c = out.counts;
  const auto put = [&c](const char* name, std::size_t v) {
    c[name] = static_cast<double>(v);
  };
  put("pubsub.posts", in.posts.size());
  put("pubsub.published", st.messages_published);
  put("pubsub.skipped_offline", skipped);
  put("pubsub.wanted", st.wanted);
  put("pubsub.deliveries", st.deliveries);
  put("pubsub.relay_forwards", st.relay_forwards);
  put("pubsub.tree_cache_hits", st.tree_cache_hits);
  put("pubsub.tree_cache_misses", st.tree_cache_misses);
  put("sim.epochs", epochs);
  put("sim.epochs_with_posts", epochs_with_posts);
  put("pubsub.retries", st.retries);
  put("pubsub.retry_exhausted", st.retry_exhausted);
  put("pubsub.failovers", st.failovers);
  put("pubsub.replays", st.replays);
  put("pubsub.duplicates_suppressed", st.duplicates_suppressed);
  put("pubsub.missed", st.missed);
  put("pubsub.pending_replays", engine.pending_replays());
  put("pubsub.replay_calls", replay_calls);
  put("pubsub.multipath_plans", plans);
  put("pubsub.notify_samples", notify_s.size());
  put("pubsub.incomplete", incomplete);
  put("pubsub.failed", failed);
  put("pubsub.delivered", delivered);
  put("pubsub.lost_to_crash", lost_to_crash);
  c["pubsub.notify_p50_s"] = quantile(notify_s, 0.50);
  c["pubsub.notify_p95_s"] = quantile(notify_s, 0.95);
  c["pubsub.notify_p99_s"] = quantile(notify_s, 0.99);
  put("runtime.events_fired", fired);
  put("runtime.queue_depth_max", queue_depth_max);
  put("select.maintenance_rounds", maintenance_rounds);
  const pubsub::MailboxStats mb = mailbox ? mailbox->stats()
                                          : pubsub::MailboxStats{};
  put("mailbox.quorum_writes", mb.quorum_writes);
  put("mailbox.quorum_degraded", mb.quorum_degraded);
  put("mailbox.handoffs", mb.handoffs);
  put("mailbox.replays", mb.replays);
  const sel::fault::FaultPlan::Stats fs =
      plan ? plan->stats() : sel::fault::FaultPlan::Stats{};
  put("fault.drops", fs.drops);
  put("fault.duplicates", fs.duplicates);
  put("fault.spikes", fs.spikes);
  put("fault.stalls", fs.stalls);
  put("fault.crashes", fs.crashes);

  out.tracked_bytes = static_cast<double>(
      sel::obs::MemTracker::global().total_live_bytes());
  out.rss_bytes = static_cast<double>(sel::obs::read_rss().rss_bytes);
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

PassResult run_pass(const WorkloadSpec& spec, std::uint64_t seed,
                    Recorder& rec) {
  PassResult out;
  Inputs in;
  auto t = Clock::now();
  {
    Scope s(rec, "setup");
    make_inputs(spec, seed, rec, in);
  }
  out.setup_s = seconds_since(t);
  out.counts["graph.edges"] = static_cast<double>(in.g.num_edges());

  t = Clock::now();
  std::optional<sel::core::SelectSystem> sys;
  {
    Scope s(rec, "build");
    {
      Scope init(rec, "select.init");
      sys.emplace(in.g, sel::core::SelectParams{}, spec.dataset_seed,
                  &*in.net);
    }
    build(*sys, rec, out);
  }
  out.build_s = seconds_since(t);

  {
    Scope s(rec, "disseminate");
    disseminate(spec, seed, in, *sys, rec, out);
  }
  out.wall_s = out.setup_s + out.build_s + out.disseminate_s;
  return out;
}

double time_setup(const WorkloadSpec& spec, std::uint64_t seed) {
  Recorder off(false);
  Inputs in;
  const auto t = Clock::now();
  make_inputs(spec, seed, off, in);
  return seconds_since(t);
}

}  // namespace perfbench

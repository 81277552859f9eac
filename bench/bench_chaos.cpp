// Chaos soak: reliable dissemination under an injected fault plan.
//
// Drives the notification engine through epochs of session churn while a
// seeded FaultPlan drops, duplicates, delays, stalls and crashes transfers,
// then repeats the identical run with the recovery machinery (acks, retry,
// failover, store-and-forward replay) disabled. The gap between the two
// rows is what the reliability layer buys; the report carries the
// `pubsub.delivery_rate` gauge and the full fault.*/pubsub.* counter set so
// `scripts/compare_reports.py --fail-on pubsub.delivery_rate=...` can gate
// regressions (two same-seed runs are bit-identical).
//
// Knobs: SEL_FAULT overrides the default chaos mix (drop=0.05,dup=0.01,
// spike=0.02,stall=0.01,crash=0.001); SEL_RETRY* tune the recovery ladder
// for the reliable row.
//
// `--adversarial` (ISSUE 9) escalates to the durability tier: the fault mix
// gains byzantine mailbox acceptors and correlated crash bursts
// (byz=0.15,bursts=2,burst_width=16,burst_spacing_s=450 over the default
// mix), the replicated-mailbox tier is armed (CMA-aware placement, quorum
// writes, anti-entropy handoff), and one publisher is force-crashed
// mid-dissemination each burst epoch. The report is written as
// `chaos_adversarial` and carries the full mailbox.* family next to
// fault.*/pubsub.*, which CI's durability job gates on. SEL_MAILBOX=1 arms
// the mailbox in the plain soak too (to isolate its overhead).
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "bench/bench_common.hpp"
#include "fault/fault.hpp"
#include "pubsub/engine.hpp"
#include "pubsub/mailbox.hpp"
#include "pubsub/multipath.hpp"
#include "select/protocol.hpp"
#include "sim/churn.hpp"

namespace {

constexpr const char* kDefaultMix =
    "drop=0.05,dup=0.01,spike=0.02,stall=0.01,crash=0.001";
constexpr const char* kAdversarialMix =
    "drop=0.05,dup=0.01,spike=0.02,stall=0.01,crash=0.001,"
    "byz=0.15,bursts=2,burst_width=16,burst_spacing_s=450";

bool parse_adversarial_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--adversarial") == 0) return true;
  }
  return false;
}

struct SoakRow {
  sel::pubsub::EngineStats stats;
  std::size_t replayed_on_return = 0;  ///< natural-return replays mid-soak
  std::size_t pending_replays = 0;     ///< queue depth at soak end
  sel::fault::FaultPlan::Stats faults;
  sel::pubsub::MailboxStats mailbox;   ///< zero when the tier is unarmed
};

SoakRow run_soak(const sel::graph::SocialGraph& g,
                 sel::core::SelectSystem& sys, sel::net::NetworkModel& net,
                 const sel::fault::FaultSpec& spec, std::uint64_t seed,
                 bool reliable, bool use_mailbox, bool adversarial) {
  using namespace sel;
  for (overlay::PeerId p = 0; p < g.num_nodes(); ++p) {
    sys.set_peer_online(p, true);
  }
  fault::FaultPlan plan(spec, seed, g.num_nodes());
  const overlay::PubSubSystem ps(sys);
  pubsub::NotificationEngine engine(ps, net);
  engine.set_fault_plan(&plan);
  // Durability tier: replicate every store-and-forward miss to k mailbox
  // peers, placed by the recovery layer's CMA (paper Sec. III-F).
  std::optional<pubsub::MailboxManager> mailbox;
  if (reliable && use_mailbox) {
    mailbox.emplace(engine.event_engine(), sys, net,
                    pubsub::MailboxPolicy::from_env(), seed);
    mailbox->set_fault_plan(&plan);
    mailbox->set_availability_fn(
        [&sys](overlay::PeerId p) { return sys.cma_of(p); });
    engine.set_mailbox(&*mailbox);
  }
  pubsub::RetryPolicy policy = pubsub::RetryPolicy::from_env();
  policy.enabled = reliable;
  policy.ack_timeout_s = std::min(policy.ack_timeout_s, 2.0);
  engine.set_retry_policy(policy);
  if (reliable) {
    engine.set_multipath_planner([&](overlay::PeerId b) {
      return pubsub::plan_multipath(sys, g, b);
    });
    engine.set_availability_observer([&](overlay::PeerId p, bool up) {
      sys.observe_availability(p, up);
    });
  }

  sim::SessionChurn::Params churn_params;
  churn_params.session_median_s = 3600.0;
  churn_params.offline_median_s = 600.0;
  sim::SessionChurn churn(g.num_nodes(), churn_params, derive_seed(seed, 1));

  const auto publishers =
      bench::workload_publishers(g, 8, derive_seed(seed, 2));
  constexpr double kEpochS = 300.0;
  const std::size_t epochs = std::max<std::size_t>(4, trial_count());
  SoakRow row;
  std::size_t next_pub = 0;
  std::size_t next_burst = 0;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    const double t0 = static_cast<double>(epoch) * kEpochS;
    // Correlated crash bursts: whole failure domains die together on the
    // plan's precomputed schedule, and the engine drops their local replay
    // queues (the mailbox replicas, when armed, survive the burst).
    while (adversarial && next_burst < plan.bursts().size() &&
           plan.bursts()[next_burst].at_s <= t0) {
      const auto& burst = plan.bursts()[next_burst++];
      plan.apply_burst(burst);
      for (const auto p : burst.peers) {
        sys.set_peer_online(p, false);
        engine.on_peer_crashed(p, t0);
      }
      // The adversarial scenario of ROADMAP item 4: a *publisher* crashes
      // with disseminations (and its store-and-forward queue) in flight.
      const auto victim = publishers[next_burst % publishers.size()];
      plan.force_crash(victim);
      sys.set_peer_online(victim, false);
      engine.on_peer_crashed(victim, t0);
    }
    churn.advance_to(t0);
    for (const auto p : churn.last_departures()) {
      sys.set_peer_online(p, false);
    }
    for (const auto p : churn.last_arrivals()) {
      if (!plan.crashed(p)) {
        sys.set_peer_online(p, true);
        row.replayed_on_return += engine.replay_missed(p, t0);
      }
    }
    for (const auto c : plan.crashed_peers()) {
      sys.set_peer_online(c, false);
    }
    engine.invalidate_trees();
    for (std::size_t m = 0; m < 5; ++m) {
      auto pub = publishers[next_pub++ % publishers.size()];
      // Adversarial tier: dead publishers publish nothing — rotate to the
      // next surviving one (same-seed runs rotate identically).
      if (adversarial) {
        std::size_t scanned = 0;
        while (plan.crashed(pub) && ++scanned < publishers.size()) {
          pub = publishers[next_pub++ % publishers.size()];
        }
        if (plan.crashed(pub)) break;
      }
      engine.publish(pub, t0 + static_cast<double>(m));
    }
    engine.run_until(t0 + kEpochS);
  }
  engine.run_all();
  row.stats = engine.stats();
  row.pending_replays = engine.pending_replays();
  row.faults = plan.stats();
  if (mailbox) row.mailbox = mailbox->stats();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sel;
  const bool adversarial = parse_adversarial_flag(argc, argv);
  const bool use_mailbox =
      adversarial || env::get_bool("SEL_MAILBOX", false);
  bench::print_banner(
      adversarial ? "Chaos soak — adversarial durability tier"
                  : "Chaos soak — reliable dissemination under faults",
      adversarial
          ? "durability extension (ISSUE 9): replicated mailboxes + quorum "
            "acks vs byzantine acceptors, crash bursts and publisher crashes"
          : "robustness extension (ISSUE 4): acks + retry/backoff + failover "
            "+ offline replay vs a fault plan",
      adversarial
          ? "queued messages survive publisher crashes via mailbox replicas; "
            "mailbox.quorum_writes > 0 and the control row loses messages"
          : "reliable delivery rate stays near 1.0 under drops/crashes; the "
            "control row (no retries, same fault seed) visibly loses "
            "messages");

  const std::size_t n = scaled(300, 128);
  const std::uint64_t seed = 42;
  const fault::FaultSpec spec = fault::FaultSpec::parse(env::get_string(
      "SEL_FAULT", adversarial ? kAdversarialMix : kDefaultMix));
  std::printf("fault mix: %s\n", spec.to_string().c_str());
  std::printf("mailbox: %s\n", use_mailbox ? "armed" : "off");

  const auto g =
      graph::make_dataset_graph(graph::profile_by_name("facebook"), n, seed);

  net::NetworkModel net(g.num_nodes(), seed);
  core::SelectSystem sys(g, core::SelectParams{}, seed, &net);
  sys.build();

  const char* base_name = adversarial ? "chaos_adversarial" : "chaos";
  CsvWriter csv(bench::output_path(std::string(base_name) + ".csv"),
                {"config", "published", "wanted", "delivered",
                 "delivery_rate", "retries", "failovers", "replays",
                 "mailbox_replays", "missed", "dup_suppressed",
                 "pending_replays", "injected_drops", "injected_crashes",
                 "burst_crashes", "quorum_writes", "quorum_degraded",
                 "handoffs"});
  TablePrinter table({"config", "delivery", "retries", "failovers",
                      "replays", "mbox_replays", "missed"});

  SoakRow reliable_row;
  for (const bool reliable : {true, false}) {
    const auto row = run_soak(g, sys, net, spec, seed, reliable,
                              use_mailbox, adversarial);
    if (reliable) reliable_row = row;
    const char* name = reliable ? "reliable" : "control";
    table.add_row({name, fmt(row.stats.delivery_rate(), 4),
                   std::to_string(row.stats.retries),
                   std::to_string(row.stats.failovers),
                   std::to_string(row.stats.replays),
                   std::to_string(row.stats.mailbox_replays),
                   std::to_string(row.stats.missed)});
    csv.row(std::vector<std::string>{
        name, std::to_string(row.stats.messages_published),
        std::to_string(row.stats.wanted),
        std::to_string(row.stats.deliveries),
        fmt(row.stats.delivery_rate(), 6), std::to_string(row.stats.retries),
        std::to_string(row.stats.failovers),
        std::to_string(row.stats.replays),
        std::to_string(row.stats.mailbox_replays),
        std::to_string(row.stats.missed),
        std::to_string(row.stats.duplicates_suppressed),
        std::to_string(row.pending_replays),
        std::to_string(row.faults.drops),
        std::to_string(row.faults.crashes),
        std::to_string(row.faults.burst_crashes),
        std::to_string(row.mailbox.quorum_writes),
        std::to_string(row.mailbox.quorum_degraded),
        std::to_string(row.mailbox.handoffs)});
  }
  table.print();

  // The regression gate: compare_reports.py --fail-on pubsub.delivery_rate
  // diffs this gauge between a baseline and a candidate run.
  obs::MetricsRegistry::global().gauge("pubsub.delivery_rate")
      .set(reliable_row.stats.delivery_rate());

  std::printf("wrote %s\n", csv.path().c_str());
  bench::write_run_report(
      base_name, csv.path(),
      {{"seed", std::to_string(seed)},
       {"fault_mix", spec.to_string()},
       {"n", std::to_string(n)},
       {"mailbox", use_mailbox ? "1" : "0"}});
  return 0;
}

// Deterministic fault injection for the message plane.
//
// The engine's event-queue transfer path is perfect by default: every
// scheduled hop arrives. That never exercises the robustness machinery the
// paper claims (CMA-guided link recovery, Sec. III-F; multipath failover,
// Sec. V), so a FaultPlan injects the failure classes a deployment sees:
//
//   drop        the hop's message is lost in transit (no ack);
//   duplicate   the hop is delivered twice (retransmission race);
//   spike       the hop's transfer takes `spike_factor` times longer;
//   stall       the receiver stops responding for `stall_s` seconds
//               (process pause, NAT rebind) — arrivals are not acked;
//   crash       the receiver dies permanently mid-dissemination.
//
// Adversarial tier (DESIGN.md §17): on top of the per-hop classes, a plan
// can seed *correlated* and *byzantine* failures that the replicated-mailbox
// quorum must tolerate:
//
//   byzantine   a seeded fraction of peers act byzantine as mailbox
//               acceptors — they acknowledge store requests they never
//               persist (false acks), occasionally double-ack (duplicate
//               acks), and withhold queued messages at replay time;
//   bursts      correlated crash bursts: whole failure domains (seeded peer
//               groups of `burst_width`) die together at scheduled times,
//               publishers included — the correlated-failure scenario
//               availability-diverse replica placement exists to survive.
//
// Determinism contract: per-hop fates are a pure hash of
// (seed, message, from, to, attempt), so a run with the same seed draws the
// same faults regardless of how the event queue interleaves messages.
// Receiver state (stall windows, crash set) is updated at arrival events,
// which the EventEngine orders deterministically — two runs with the same
// seed are bit-identical end to end.
//
// Every injected fault is counted both locally (Stats) and in the global
// metrics registry under `fault.*`, so chaos RunReports record exactly what
// the plan did to the run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sel::fault {

/// Per-class fault probabilities and shape parameters. All probabilities
/// are per hop (drop/duplicate/spike) or per arrival (stall/crash).
struct FaultSpec {
  double drop = 0.0;           ///< P(hop lost in transit)
  double duplicate = 0.0;      ///< P(hop delivered twice)
  double spike = 0.0;          ///< P(latency spike on hop)
  double spike_factor = 10.0;  ///< transfer-time multiplier on spiked hops
  double stall = 0.0;          ///< P(receiver goes unresponsive at arrival)
  double stall_s = 30.0;       ///< unresponsive-window length, seconds
  double crash = 0.0;          ///< P(receiver crashes at arrival)
  // -- adversarial tier ---------------------------------------------------
  double byzantine = 0.0;  ///< fraction of peers byzantine as mailbox acceptors
  std::size_t bursts = 0;  ///< correlated crash bursts over the run
  std::size_t burst_width = 8;     ///< peers per failure domain
  double burst_spacing_s = 300.0;  ///< virtual seconds between bursts

  /// True when any fault class has non-zero probability.
  [[nodiscard]] bool any() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || spike > 0.0 || stall > 0.0 ||
           crash > 0.0 || byzantine > 0.0 || bursts > 0;
  }

  /// Parses a comma-separated knob list, e.g.
  /// "drop=0.05,dup=0.01,spike=0.02,spike_factor=5,stall=0.01,stall_s=30,
  /// crash=0.001,byz=0.15,bursts=2,burst_width=16,burst_spacing_s=450".
  /// Unknown keys warn (SELECT_LOG) and are skipped.
  [[nodiscard]] static FaultSpec parse(std::string_view spec);

  /// parse(SEL_FAULT); all-zero when the variable is unset.
  [[nodiscard]] static FaultSpec from_env();

  /// Round-trippable canonical form (only non-default fields).
  [[nodiscard]] std::string to_string() const;
};

/// Outcome of one hop transmission, drawn at send time.
struct HopFate {
  bool dropped = false;
  bool duplicated = false;
  double latency_factor = 1.0;  ///< >= 1; spike multiplier when spiked
};

/// Receiver condition at an arrival event.
enum class ReceiveState : std::uint8_t { kOk, kStalled, kCrashed };

/// One correlated crash burst: every peer of failure domain `domain` dies
/// together at `at_s`. The schedule is computed at plan construction (pure
/// in seed + spec), so two same-seed runs burst identically.
struct BurstEvent {
  double at_s = 0.0;
  std::uint32_t domain = 0;
  std::vector<std::uint32_t> peers;  ///< ascending
};

/// Outcome of one mailbox store request at a (possibly byzantine) acceptor,
/// drawn when the request arrives at a live peer. Honest acceptors ack and
/// persist; byzantine ones always ack, sometimes twice, and persist only
/// half the time — and what they do persist they withhold at replay.
struct AckFate {
  bool acked = false;       ///< an acknowledgement came back
  bool stored = false;      ///< the acceptor actually persisted the copy
  bool duplicated = false;  ///< a second, identical ack was emitted
};

class FaultPlan {
 public:
  /// `num_peers` sizes the per-peer stall/crash state.
  FaultPlan(FaultSpec spec, std::uint64_t seed, std::size_t num_peers);

  /// Send-time fate of attempt `attempt` of the hop `from -> to` carrying
  /// message `msg`. Pure in (seed, msg, from, to, attempt); counts injected
  /// faults as a side effect.
  [[nodiscard]] HopFate hop_fate(std::uint64_t msg, std::uint32_t from,
                                 std::uint32_t to, std::uint32_t attempt);

  /// Receiver-side draw at an arrival event: consults (and may extend) the
  /// peer's stall window and crash state. Call exactly once per arrival.
  [[nodiscard]] ReceiveState on_receive(std::uint32_t peer, std::uint64_t msg,
                                        double now_s);

  [[nodiscard]] bool crashed(std::uint32_t peer) const {
    return crashed_[peer];
  }
  [[nodiscard]] bool stalled(std::uint32_t peer, double now_s) const {
    return now_s < stalled_until_[peer];
  }
  /// Peers marked crashed so far (sorted ascending).
  [[nodiscard]] std::vector<std::uint32_t> crashed_peers() const;

  // -- adversarial tier -----------------------------------------------------

  /// The peer's correlated-failure domain: a pure hash of (seed, peer) into
  /// num_domains() buckets. Mailbox placement uses this to avoid co-locating
  /// replicas with peers fated to die together; apply_burst() kills a whole
  /// domain at once.
  [[nodiscard]] std::uint32_t failure_domain(std::uint32_t peer) const;
  /// Number of failure domains: max(1, num_peers / spec.burst_width).
  [[nodiscard]] std::size_t num_domains() const;
  /// The burst schedule, computed at construction: spec.bursts events at
  /// (i+1) * spec.burst_spacing_s, each naming a hashed domain and its
  /// member peers. Empty when spec.bursts == 0.
  [[nodiscard]] const std::vector<BurstEvent>& bursts() const noexcept {
    return bursts_;
  }
  /// Marks every member of the burst's domain crashed (counts each newly
  /// crashed peer). Drivers call this when virtual time passes burst.at_s.
  void apply_burst(const BurstEvent& burst);
  /// Driver-forced crash (e.g. the publisher mid-dissemination). Counts the
  /// crash like an injected one.
  void force_crash(std::uint32_t peer);
  /// True when the peer is fated byzantine as a mailbox acceptor — a pure
  /// hash draw of (seed, peer) against spec.byzantine.
  [[nodiscard]] bool byzantine(std::uint32_t peer) const;
  /// Mailbox store-request fate at `peer` for (msg, subscriber, attempt).
  /// Honest peers ack and store; byzantine ones always ack, store only half
  /// the time (false acks), and double-ack half the time. Pure in
  /// (seed, peer, msg, subscriber, attempt); counts byzantine fates.
  [[nodiscard]] AckFate mailbox_ack(std::uint32_t peer, std::uint64_t msg,
                                    std::uint32_t subscriber,
                                    std::uint32_t attempt);
  /// True when a byzantine acceptor withholds its stored copy of `msg` at
  /// replay time (always, for byzantine peers). Counts the withholding.
  [[nodiscard]] bool withholds_replay(std::uint32_t peer, std::uint64_t msg);

  /// Clears the accumulated receiver state (stall windows, crash set,
  /// per-peer draw sequence) and the local stats, restoring the plan to its
  /// just-constructed draws, so a plan reused across engine runs draws
  /// exactly as a freshly constructed one would; global fault.* counters
  /// are untouched and keep accumulating across runs.
  void reset();

  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  struct Stats {
    std::size_t drops = 0;
    std::size_t duplicates = 0;
    std::size_t spikes = 0;
    std::size_t stalls = 0;
    std::size_t crashes = 0;
    // adversarial tier
    std::size_t burst_crashes = 0;
    std::size_t false_acks = 0;
    std::size_t duplicate_acks = 0;
    std::size_t withheld_replays = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// Uniform [0,1) from a hash of (seed, salt, a, b, c) — the determinism
  /// primitive behind every fault draw.
  [[nodiscard]] double u01(std::uint64_t salt, std::uint64_t a,
                           std::uint64_t b, std::uint64_t c) const noexcept;

  /// Marks `peer` crashed if not already, bumping local + global counters.
  /// `counter` names the global metric charged ("fault.crashes" or
  /// "fault.burst_crashes"); returns true when the peer newly crashed.
  bool mark_crashed(std::uint32_t peer, const char* counter);

  FaultSpec spec_;
  std::uint64_t seed_;
  std::vector<double> stalled_until_;  ///< absolute sim time, per peer
  std::vector<bool> crashed_;
  /// Per-peer receive counter discriminating successive on_receive() draws.
  std::vector<std::uint64_t> receive_seq_;
  std::vector<BurstEvent> bursts_;  ///< fixed at construction; reset() keeps
  Stats stats_;
};

}  // namespace sel::fault

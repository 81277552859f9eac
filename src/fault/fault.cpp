#include "fault/fault.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace sel::fault {

namespace {

// Fault-plane telemetry (naming: `fault.*`): what the plan actually injected
// into the run, aggregated process-wide like the pubsub counters.
obs::Counter& drops_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("fault.drops");
  return c;
}
obs::Counter& duplicates_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("fault.duplicates");
  return c;
}
obs::Counter& spikes_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("fault.latency_spikes");
  return c;
}
obs::Counter& stalls_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("fault.stalls");
  return c;
}
obs::Counter& crashes_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("fault.crashes");
  return c;
}
obs::Counter& bursts_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("fault.bursts");
  return c;
}
obs::Counter& burst_crashes_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("fault.burst_crashes");
  return c;
}
obs::Counter& false_acks_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("fault.byzantine_false_acks");
  return c;
}
obs::Counter& duplicate_acks_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("fault.byzantine_duplicate_acks");
  return c;
}
obs::Counter& withheld_replays_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "fault.byzantine_withheld_replays");
  return c;
}

// Draw salts: distinct streams per fault class so e.g. the drop and
// duplicate decisions of one hop are independent.
constexpr std::uint64_t kDropSalt = 0x5e1d0001;
constexpr std::uint64_t kDupSalt = 0x5e1d0002;
constexpr std::uint64_t kSpikeSalt = 0x5e1d0003;
constexpr std::uint64_t kStallSalt = 0x5e1d0004;
constexpr std::uint64_t kCrashSalt = 0x5e1d0005;
// Adversarial tier.
constexpr std::uint64_t kDomainSalt = 0x5e1d0006;
constexpr std::uint64_t kBurstSalt = 0x5e1d0007;
constexpr std::uint64_t kByzSalt = 0x5e1d0008;
constexpr std::uint64_t kByzStoreSalt = 0x5e1d0009;
constexpr std::uint64_t kByzDupSalt = 0x5e1d000a;

double parse_value(std::string_view key, std::string_view text, double fallback) {
  char* end = nullptr;
  const std::string owned(text);
  const double v = std::strtod(owned.c_str(), &end);
  if (end == owned.c_str()) {
    log_warn("SEL_FAULT: unparsable value for '" + std::string(key) + "': '" +
             owned + "'");
    return fallback;
  }
  return v;
}

void append_knob(std::string& out, const char* key, double value,
                 double default_value) {
  if (value == default_value) return;
  if (!out.empty()) out += ',';
  out += key;
  out += '=';
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", value);
  out += buf;
}

}  // namespace

FaultSpec FaultSpec::parse(std::string_view spec) {
  FaultSpec out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      log_warn("SEL_FAULT: expected key=value, got '" + std::string(item) +
               "'");
      continue;
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view val = item.substr(eq + 1);
    if (key == "drop") {
      out.drop = parse_value(key, val, out.drop);
    } else if (key == "dup" || key == "duplicate") {
      out.duplicate = parse_value(key, val, out.duplicate);
    } else if (key == "spike") {
      out.spike = parse_value(key, val, out.spike);
    } else if (key == "spike_factor") {
      out.spike_factor = parse_value(key, val, out.spike_factor);
    } else if (key == "stall") {
      out.stall = parse_value(key, val, out.stall);
    } else if (key == "stall_s") {
      out.stall_s = parse_value(key, val, out.stall_s);
    } else if (key == "crash") {
      out.crash = parse_value(key, val, out.crash);
    } else if (key == "byz" || key == "byzantine") {
      out.byzantine = parse_value(key, val, out.byzantine);
    } else if (key == "bursts") {
      out.bursts = static_cast<std::size_t>(std::max(
          0.0, parse_value(key, val, static_cast<double>(out.bursts))));
    } else if (key == "burst_width") {
      out.burst_width = static_cast<std::size_t>(std::max(
          1.0, parse_value(key, val, static_cast<double>(out.burst_width))));
    } else if (key == "burst_spacing_s") {
      out.burst_spacing_s = parse_value(key, val, out.burst_spacing_s);
    } else {
      log_warn("SEL_FAULT: unknown fault knob '" + std::string(key) + "'");
    }
  }
  return out;
}

std::string FaultSpec::to_string() const {
  const FaultSpec defaults;
  std::string out;
  append_knob(out, "drop", drop, defaults.drop);
  append_knob(out, "dup", duplicate, defaults.duplicate);
  append_knob(out, "spike", spike, defaults.spike);
  append_knob(out, "spike_factor", spike_factor, defaults.spike_factor);
  append_knob(out, "stall", stall, defaults.stall);
  append_knob(out, "stall_s", stall_s, defaults.stall_s);
  append_knob(out, "crash", crash, defaults.crash);
  append_knob(out, "byz", byzantine, defaults.byzantine);
  append_knob(out, "bursts", static_cast<double>(bursts),
              static_cast<double>(defaults.bursts));
  append_knob(out, "burst_width", static_cast<double>(burst_width),
              static_cast<double>(defaults.burst_width));
  append_knob(out, "burst_spacing_s", burst_spacing_s,
              defaults.burst_spacing_s);
  return out;
}

FaultPlan::FaultPlan(FaultSpec spec, std::uint64_t seed, std::size_t num_peers)
    : spec_(spec),
      seed_(seed),
      stalled_until_(num_peers, 0.0),
      crashed_(num_peers, false),
      receive_seq_(num_peers, 0) {
  SEL_EXPECTS(spec.spike_factor >= 1.0);
  SEL_EXPECTS(spec.stall_s >= 0.0);
  // Register the whole fault.* counter family up front so run reports carry
  // a seed-independent schema: a fault class that never fires reports 0
  // instead of omitting the key. CI's exact-match report gates (--fail-on
  // fault.crashes=0 etc.) rely on the key existing in both runs.
  drops_counter();
  duplicates_counter();
  spikes_counter();
  stalls_counter();
  crashes_counter();
  bursts_counter();
  burst_crashes_counter();
  false_acks_counter();
  duplicate_acks_counter();
  withheld_replays_counter();
  // The burst schedule is fixed at construction — a pure function of
  // (seed, spec, num_peers) — so same-seed runs burst identically and
  // reset() need not (and must not) touch it.
  const std::size_t domains = num_domains();
  bursts_.reserve(spec_.bursts);
  for (std::size_t i = 0; i < spec_.bursts; ++i) {
    BurstEvent burst;
    burst.at_s = static_cast<double>(i + 1) * spec_.burst_spacing_s;
    burst.domain = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(u01(kBurstSalt, i, 0, 0) *
                                   static_cast<double>(domains)) %
        domains);
    for (std::uint32_t p = 0; p < num_peers; ++p) {
      if (failure_domain(p) == burst.domain) burst.peers.push_back(p);
    }
    bursts_.push_back(std::move(burst));
  }
}

double FaultPlan::u01(std::uint64_t salt, std::uint64_t a, std::uint64_t b,
                      std::uint64_t c) const noexcept {
  // SplitMix chain over (seed, salt, a, b, c): a well-mixed 64-bit hash,
  // mapped to [0,1) with 53 random bits (same mapping as Rng::uniform()).
  std::uint64_t h = splitmix64(seed_ ^ splitmix64(salt));
  h = splitmix64(h ^ splitmix64(a));
  h = splitmix64(h ^ splitmix64(b));
  h = splitmix64(h ^ splitmix64(c));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

HopFate FaultPlan::hop_fate(std::uint64_t msg, std::uint32_t from,
                            std::uint32_t to, std::uint32_t attempt) {
  // Pack (from, to, attempt) into the third hash word; attempts draw
  // independent fates so a retry is a fresh Bernoulli trial.
  const std::uint64_t edge =
      (static_cast<std::uint64_t>(from) << 32) | to;
  HopFate fate;
  if (spec_.drop > 0.0 && u01(kDropSalt, msg, edge, attempt) < spec_.drop) {
    fate.dropped = true;
    ++stats_.drops;
    drops_counter().add(1);
    return fate;  // a dropped hop cannot also duplicate or spike
  }
  if (spec_.duplicate > 0.0 &&
      u01(kDupSalt, msg, edge, attempt) < spec_.duplicate) {
    fate.duplicated = true;
    ++stats_.duplicates;
    duplicates_counter().add(1);
  }
  if (spec_.spike > 0.0 && u01(kSpikeSalt, msg, edge, attempt) < spec_.spike) {
    fate.latency_factor = spec_.spike_factor;
    ++stats_.spikes;
    spikes_counter().add(1);
  }
  return fate;
}

ReceiveState FaultPlan::on_receive(std::uint32_t peer, std::uint64_t msg,
                                   double now_s) {
  SEL_EXPECTS(peer < crashed_.size());
  if (crashed_[peer]) return ReceiveState::kCrashed;
  if (now_s < stalled_until_[peer]) return ReceiveState::kStalled;
  // Each arrival is a fresh Bernoulli trial: the per-peer receive sequence
  // number discriminates the draws, so a retry of the same message cannot
  // replay an earlier stall fate and wedge the pair forever. The sequence
  // is deterministic because the simulator's event order is.
  const std::uint64_t seq = receive_seq_[peer]++;
  // Crash is drawn before stall: a peer that would do both is simply dead.
  if (spec_.crash > 0.0 && u01(kCrashSalt, msg, peer, seq) < spec_.crash) {
    crashed_[peer] = true;
    ++stats_.crashes;
    crashes_counter().add(1);
    return ReceiveState::kCrashed;
  }
  if (spec_.stall > 0.0 && u01(kStallSalt, msg, peer, seq) < spec_.stall) {
    stalled_until_[peer] = now_s + spec_.stall_s;
    ++stats_.stalls;
    stalls_counter().add(1);
    return ReceiveState::kStalled;
  }
  return ReceiveState::kOk;
}

std::vector<std::uint32_t> FaultPlan::crashed_peers() const {
  std::vector<std::uint32_t> out;
  for (std::size_t p = 0; p < crashed_.size(); ++p) {
    if (crashed_[p]) out.push_back(static_cast<std::uint32_t>(p));
  }
  return out;
}

std::uint32_t FaultPlan::failure_domain(std::uint32_t peer) const {
  const std::size_t domains = num_domains();
  return static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(u01(kDomainSalt, peer, 0, 0) *
                                 static_cast<double>(domains)) %
      domains);
}

std::size_t FaultPlan::num_domains() const {
  const std::size_t width = std::max<std::size_t>(1, spec_.burst_width);
  return std::max<std::size_t>(1, crashed_.size() / width);
}

bool FaultPlan::mark_crashed(std::uint32_t peer, const char* counter) {
  SEL_EXPECTS(peer < crashed_.size());
  if (crashed_[peer]) return false;
  crashed_[peer] = true;
  obs::MetricsRegistry::global().counter(counter).add(1);
  return true;
}

void FaultPlan::apply_burst(const BurstEvent& burst) {
  bursts_counter().add(1);
  for (const auto p : burst.peers) {
    if (mark_crashed(p, "fault.burst_crashes")) ++stats_.burst_crashes;
  }
}

void FaultPlan::force_crash(std::uint32_t peer) {
  if (mark_crashed(peer, "fault.crashes")) ++stats_.crashes;
}

bool FaultPlan::byzantine(std::uint32_t peer) const {
  return spec_.byzantine > 0.0 &&
         u01(kByzSalt, peer, 0, 0) < spec_.byzantine;
}

AckFate FaultPlan::mailbox_ack(std::uint32_t peer, std::uint64_t msg,
                               std::uint32_t subscriber,
                               std::uint32_t attempt) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(subscriber) << 32) | attempt;
  AckFate fate;
  fate.acked = true;
  if (!byzantine(peer)) {
    fate.stored = true;
    return fate;
  }
  // Byzantine acceptors always ack but persist only half the time — the
  // false ack is what ⌈(k+1)/2⌉-quorums with ⌊(k−1)/2⌋ byzantine members
  // are sized to tolerate (at least one acked replica is honest).
  fate.stored = u01(kByzStoreSalt, peer, msg, key) < 0.5;
  if (!fate.stored) {
    ++stats_.false_acks;
    false_acks_counter().add(1);
  }
  fate.duplicated = u01(kByzDupSalt, peer, msg, key) < 0.5;
  if (fate.duplicated) {
    ++stats_.duplicate_acks;
    duplicate_acks_counter().add(1);
  }
  return fate;
}

bool FaultPlan::withholds_replay(std::uint32_t peer, std::uint64_t msg) {
  (void)msg;
  if (!byzantine(peer)) return false;
  ++stats_.withheld_replays;
  withheld_replays_counter().add(1);
  return true;
}

}  // namespace sel::fault

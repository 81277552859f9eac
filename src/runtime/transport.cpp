#include "runtime/transport.hpp"

#include <utility>

namespace sel::runtime {

Transport::Transport(const net::NetworkModel& net, fault::FaultPlan* plan)
    : net_(&net),
      fault_(plan),
      hop_latency_s_(
          obs::MetricsRegistry::global().histogram("runtime.hop_latency_s")) {}

void Transport::flush_tallies() noexcept {
  static obs::Counter& hops =
      obs::MetricsRegistry::global().counter("runtime.hops_sent");
  hops.add(std::exchange(hops_sent_, 0));
  hop_latency_s_.flush();
}

SendOutcome Transport::send(const Message& m, double transfer_s) {
  fault::HopFate fate;
  if (fault_ != nullptr) {
    fate = fault_->hop_fate(m.msg, m.from, m.to, m.fault_attempt);
  }
  const double arrival = m.send_s + transfer_s * fate.latency_factor;

  ++hops_sent_;
  SendOutcome outcome;
  outcome.arrive_s = arrival;
  if (fate.dropped) {
    outcome.dropped = true;
    return outcome;
  }
  hop_latency_s_.observe(arrival - m.send_s);
  outcome.copies = fate.duplicated && !m.collapse_duplicates ? 2 : 1;
  return outcome;
}

}  // namespace sel::runtime

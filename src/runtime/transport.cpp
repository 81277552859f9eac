#include "runtime/transport.hpp"

#include "obs/metrics.hpp"

namespace sel::runtime {

namespace {

// Per-hop one-way latency (send → arrival, spikes included). The
// network-side picture, complementing the protocol-side
// pubsub.delivery_latency_s histogram.
obs::Histogram& hop_latency_hist() {
  static obs::Histogram& h =
      obs::MetricsRegistry::global().histogram("runtime.hop_latency_s");
  return h;
}

obs::Counter& hops_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("runtime.hops_sent");
  return c;
}

}  // namespace

SendOutcome Transport::send(const Message& m, double transfer_s) {
  fault::HopFate fate;
  if (fault_ != nullptr) {
    fate = fault_->hop_fate(m.msg, m.from, m.to, m.fault_attempt);
  }
  const double arrival = m.send_s + transfer_s * fate.latency_factor;

  hops_counter().add(1);
  SendOutcome outcome;
  outcome.arrive_s = arrival;
  if (fate.dropped) {
    outcome.dropped = true;
    return outcome;
  }
  hop_latency_hist().observe(arrival - m.send_s);
  outcome.copies = fate.duplicated && !m.collapse_duplicates ? 2 : 1;
  return outcome;
}

}  // namespace sel::runtime

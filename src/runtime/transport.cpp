#include "runtime/transport.hpp"

#include <utility>

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

SendOutcome Transport::send(const Message& m, ArrivalFn on_arrival) {
  const double base =
      net_->transfer_time_s(m.from, m.to, m.payload_bytes, m.uplink_share);
  fault::HopFate fate;
  if (fault_ != nullptr) {
    fate = fault_->hop_fate(m.msg, m.from, m.to, m.fault_attempt);
  }
  const double arrival = m.send_s + base * fate.latency_factor;

  hops_counter().add(1);
  SendOutcome outcome;
  outcome.arrive_s = arrival;
  if (fate.dropped) {
    outcome.dropped = true;
    return outcome;
  }
  hop_latency_hist().observe(arrival - m.send_s);
  outcome.copies = fate.duplicated && !m.collapse_duplicates ? 2 : 1;
  for (std::uint32_t c = 0; c < outcome.copies; ++c) {
    // Last copy moves the completion; earlier copies share it by value.
    ArrivalFn done =
        c + 1 == outcome.copies ? std::move(on_arrival) : on_arrival;
    engine_->schedule(arrival, [this, to = m.to, msg = m.msg,
                                done = std::move(done)](double now) {
      Arrival a;
      a.arrive_s = now;
      // Receiver-side draw at the arrival event — stall windows and
      // crash state advance in deterministic event order.
      a.receiver = fault_ != nullptr ? fault_->on_receive(to, msg, now)
                                     : fault::ReceiveState::kOk;
      done(a);
    });
  }
  return outcome;
}

}  // namespace sel::runtime

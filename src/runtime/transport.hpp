// Transport plane: who carries a hop, and when it lands.
//
// The notification engine (pubsub/engine.cpp) speaks one narrow contract —
// send(message) at the sender, receive(...) at each arrival — and stays
// ignorant of *how* the hop travels. The transport is single-process:
// arrival time = send + NetworkModel transfer time (latency +
// payload/bandwidth with uplink sharing), stretched by the fault plan's
// latency spikes; drops and duplicates come from send-side hop fates;
// receiver stall/crash states are drawn when an arrival fires.
//
// Contract: send() draws the hop's fate and returns one SendOutcome; it
// schedules nothing. The caller schedules `copies` arrival events at
// `arrive_s` on its EventEngine, in copy order, and calls receive() when
// each fires, so receiver states advance in deterministic event order. A
// dropped hop has no arrivals at all — the sender arms its own loss
// detection (ack timeout), exactly as a real sender would.
//
// Send-side fates (drop, duplicate, latency spike) are pure in (seed,
// message, peers, attempt); receiver-side fates advance in deterministic
// event order.
//
// Per-hop telemetry (`runtime.hops_sent`, `runtime.hop_latency_s`) is
// counted in plain members and reaches the registry at flush_tallies(),
// which the notification engine calls at the end of every drain.
#pragma once

#include <cstdint>

#include "fault/fault.hpp"
#include "net/network_model.hpp"
#include "obs/metrics.hpp"

namespace sel::runtime {

/// One hop of a dissemination, as the transport sees it. The protocol
/// meaning of the hop (tree edge, failover leg, retry) stays in the engine;
/// the transport only needs addressing, sizing and the fault key.
struct Message {
  std::uint64_t msg = 0;       ///< pubsub message id (fault/provenance key)
  std::uint32_t from = 0;      ///< sending peer
  std::uint32_t to = 0;        ///< receiving peer
  /// Attempt index *as the fault plan should key it* — the engine salts
  /// failover/detour resends so shared edges never replay consumed fates.
  std::uint32_t fault_attempt = 0;
  double payload_bytes = 0.0;
  double send_s = 0.0;  ///< virtual send time
  /// Simultaneous transfers sharing the sender's uplink (tree fan-out).
  std::uint32_t uplink_share = 1;
  /// Never materialize a second copy even when the fault plan duplicates
  /// the hop (the fate is still drawn, so the fault stream stays aligned).
  /// The engine sets this on source-routed failover legs, where a duplicate
  /// would double every remaining hop of the chain.
  bool collapse_duplicates = false;
};

/// Result of a send: what the wire did with the hop.
struct SendOutcome {
  bool dropped = false;  ///< lost in transit; no arrival will ever fire
  /// Arriving copies (0 when dropped; 2 when the fault plan duplicated the
  /// hop).
  std::uint32_t copies = 0;
  /// Virtual arrival time of every copy — also filled for dropped hops
  /// (when the copy *would* have landed), for provenance records.
  double arrive_s = 0.0;
};

class Transport {
 public:
  /// `net` must outlive the transport; `plan` may be null (perfect wire)
  /// and may be swapped at any quiescent point.
  explicit Transport(const net::NetworkModel& net,
                     fault::FaultPlan* plan = nullptr);

  void set_fault_plan(fault::FaultPlan* plan) noexcept { fault_ = plan; }

  /// NetworkModel transfer time of the hop (latency + payload over the
  /// sender's uplink share), before any fault stretching.
  [[nodiscard]] double transfer_time_s(const Message& m) const {
    return net_->transfer_time_s(m.from, m.to, m.payload_bytes,
                                 m.uplink_share);
  }

  /// Ships one hop: draws its send-side fate and reports when, and in how
  /// many copies, it lands. Schedules nothing.
  SendOutcome send(const Message& m) { return send(m, transfer_time_s(m)); }
  /// As send(m), with the hop's transfer_time_s(m) already known (the
  /// notification engine caches it per tree edge).
  SendOutcome send(const Message& m, double transfer_s);

  /// Condition of receiver `to` as a copy of message `msg` arrives at
  /// `now_s` (kOk without a fault plan). Call once per arrival, when it
  /// fires.
  [[nodiscard]] fault::ReceiveState receive(std::uint64_t msg,
                                            std::uint32_t to, double now_s) {
    return fault_ != nullptr ? fault_->on_receive(to, msg, now_s)
                             : fault::ReceiveState::kOk;
  }

  /// Folds the hops sent since the last call into the registry.
  void flush_tallies() noexcept;

 private:
  const net::NetworkModel* net_;
  fault::FaultPlan* fault_;  ///< not owned
  std::int64_t hops_sent_ = 0;
  /// One-way latency of each hop that lands (send -> arrival, spikes
  /// included): the network-side view beside pubsub.delivery_latency_s.
  obs::LocalHistogram hop_latency_s_;
};

}  // namespace sel::runtime

// Transport plane: who carries a hop, and when it lands.
//
// The notification engine (pubsub/engine.cpp) speaks one narrow contract —
// send(message, on_arrival) — and stays ignorant of *how* the hop travels.
// The transport is single-process: arrival time = send + NetworkModel
// transfer time (latency + payload/bandwidth with uplink sharing), stretched
// by the fault plan's latency spikes; drops and duplicates come from
// send-side hop fates; receiver stall/crash states are drawn at the arrival
// event. Scheduling goes through the shared EventEngine, so runs are
// bit-identical per seed — including under a seeded tie-break permutation.
//
// Contract: every send() produces exactly one synchronous SendOutcome and
// then `copies` arrival completions, each delivered through the EventEngine
// at its virtual arrival time (never synchronously from inside send()).
// A dropped hop produces no arrivals at all — the sender arms its own loss
// detection (ack timeout), exactly as a real sender would.
//
// Send-side fates (drop, duplicate, latency spike) are pure in (seed,
// message, peers, attempt); receiver-side fates advance in deterministic
// event order.
#pragma once

#include <cstdint>
#include <functional>

#include "fault/fault.hpp"
#include "net/network_model.hpp"
#include "runtime/event_engine.hpp"

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

/// Synchronous result of a send: what the wire did with the hop.
struct SendOutcome {
  bool dropped = false;  ///< lost in transit; no arrival will ever fire
  /// Arrival completions scheduled (0 when dropped; 2 when the fault plan
  /// duplicated the hop).
  std::uint32_t copies = 0;
  /// Virtual arrival time of the (first) copy — also filled for dropped
  /// hops (when the copy *would* have landed), for provenance records.
  double arrive_s = 0.0;
};

/// One arriving copy, reported at its virtual arrival time.
struct Arrival {
  double arrive_s = 0.0;
  /// Receiver condition drawn at the arrival event (kOk without faults).
  fault::ReceiveState receiver = fault::ReceiveState::kOk;
};

class Transport {
 public:
  using ArrivalFn = std::function<void(const Arrival&)>;

  /// `engine` and `net` must outlive the transport; `plan` may be null
  /// (perfect wire) and may be swapped at any quiescent point.
  Transport(EventEngine& engine, const net::NetworkModel& net,
            fault::FaultPlan* plan = nullptr)
      : engine_(&engine), net_(&net), fault_(plan) {}
  // Scheduled arrivals capture `this`.
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  void set_fault_plan(fault::FaultPlan* plan) noexcept { fault_ = plan; }

  /// Ships one hop. `on_arrival` runs once per arriving copy (see
  /// SendOutcome::copies), at that copy's virtual arrival time, via the
  /// EventEngine — never synchronously from inside this call.
  SendOutcome send(const Message& m, ArrivalFn on_arrival);

 private:
  EventEngine* engine_;
  const net::NetworkModel* net_;
  fault::FaultPlan* fault_;  ///< not owned
};

}  // namespace sel::runtime

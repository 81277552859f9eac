// Configuration seam for the message plane.
//
// The paper evaluates SELECT as a simulation: Flink/Gelly rounds for overlay
// construction and a network model for dissemination latency. The message
// plane therefore runs on one deterministic in-process event loop
// (event_engine.hpp) with one in-process transport (transport.hpp); every
// hop arrives exactly when the network model says (latency +
// payload/bandwidth) and disseminations overlap freely.
#pragma once

#include <cstdint>

namespace sel::runtime {

/// Runtime configuration for one engine instance.
struct Options {
  /// Non-zero permutes equal-time event firing (EventEngine tie seed) — the
  /// determinism-stress mode; 0 keeps FIFO order.
  std::uint64_t tie_seed = 0;
};

}  // namespace sel::runtime

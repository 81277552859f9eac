// SEL_MEM_BUDGET validation (resource observability, DESIGN.md §16).
//
// obs/ cannot call into check/ (select_check links select_obs, not the
// other way around), so the budget *policy* lives here: the obs layer only
// tracks bytes and parses the knob; this header turns an overrun into a
// SEL_CHECK violation carrying the per-subsystem breakdown dump.
//
// The failure is soft in the sense that it fires at most once per process:
// live bytes stay above the budget once crossed, and re-failing on every
// round would bury the first (useful) report under thousands of copies.
// With the default abort handler the first trip still terminates the run,
// exactly like any other SEL_CHECK violation; tests capture it with
// ScopedFailureCapture instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "check/check.hpp"
#include "obs/memory.hpp"

namespace sel::check {

/// Pure validator: std::nullopt while live tracked bytes fit the budget
/// (or the budget is disabled). `breakdown` is attached to the violation.
[[nodiscard]] inline Result validate_memory_budget(
    std::int64_t budget_bytes, std::int64_t live_bytes,
    const std::string& breakdown) {
  if (budget_bytes <= 0 || live_bytes <= budget_bytes) return std::nullopt;
  return Violation{
      "mem.budget",
      "live tracked bytes " + std::to_string(live_bytes) +
          " exceed SEL_MEM_BUDGET=" + std::to_string(budget_bytes) + " (" +
          breakdown + ")"};
}

namespace detail {
/// One-per-program trip latch (inline function static). Tests reset it via
/// reset_memory_budget_trip().
inline std::atomic<bool>& memory_budget_tripped() noexcept {
  static std::atomic<bool> tripped{false};
  return tripped;
}
}  // namespace detail

/// Test hook: re-arms the once-per-process budget trip.
inline void reset_memory_budget_trip() noexcept {
  detail::memory_budget_tripped().store(false, std::memory_order_relaxed);
}

/// Call-site helper for the wired owners (engine publish, protocol round,
/// report write): validates the global MemTracker against
/// SEL_MEM_BUDGET and reports at most one violation per process. Returns
/// false only on the trip. Costs two relaxed loads when the budget is off.
inline bool check_memory_budget() {
  if (!obs::budget_exceeded()) return true;
  if (detail::memory_budget_tripped().exchange(true,
                                               std::memory_order_relaxed)) {
    return true;  // already reported
  }
  return enforce(validate_memory_budget(
      obs::mem_budget_bytes(),
      obs::MemTracker::global().total_live_bytes(),
      obs::memory_breakdown()));
}

}  // namespace sel::check

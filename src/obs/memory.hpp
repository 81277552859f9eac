// Resource observability: subsystem memory accounting and RSS gauges.
//
// Three layers, all feeding the `mem.*` gauge family of the global
// MetricsRegistry (obs/metrics.hpp):
//
//   1. MemTracker — a process-wide table of live/peak heap bytes per
//      Subsystem, updated by the tagged allocator below. Charges and
//      discharges are relaxed atomics (one add + one CAS-max per
//      allocation), cheap enough for container hot paths.
//   2. Accounted<T, S> — a std::allocator drop-in that attributes every
//      allocation to subsystem S (or, for S = kDynamic, to the subsystem
//      named by the innermost MemScope active at allocation time). The tag
//      is baked into the allocator *instance*, and the allocator propagates
//      on copy/move/swap, so bytes are always discharged against the same
//      subsystem they were charged to — attribution sums to zero after a
//      full alloc/free round-trip (asserted by obs_memory_test).
//   3. An RSS poller reading /proc/self/status (VmRSS / VmHWM). Like the
//      wall clock in obs/time.hpp, the /proc read is fenced into obs/ —
//      resident-set bytes never feed back into protocol behaviour, they are
//      telemetry only.
//
// `SEL_MEM_BUDGET` (bytes; k/m/g suffixes) arms a soft budget: once live
// tracked bytes exceed it, budget_exceeded() reports the overrun and
// check/memory_checks.hpp turns that into a SEL_CHECK violation carrying a
// per-subsystem breakdown. 0 (default) disables the budget.
//
// `--mem-profile` (any harness) or SEL_MEM_PROFILE=on enables per-round
// memory sampling: obs/sampler.hpp folds mem.* values into every
// timeseries point when mem_profile_enabled() is true.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace sel::obs {

/// Subsystem families bytes are attributed to. Order defines the gauge
/// names (`mem.<name>.live_bytes` / `mem.<name>.peak_bytes`) and the
/// breakdown dump; append new families at the end, before kSubsystemCount.
enum class Subsystem : std::uint8_t {
  kGraph = 0,    ///< CSR social graph (offsets + adjacency)
  kOverlay = 1,  ///< ring/long-link peer state + dissemination trees
  kPubsub = 2,   ///< in-flight dissemination + store-and-forward buffers
  kRuntime = 3,  ///< event engine + transport plane
  kOther = 4,    ///< MemScope-tagged allocations outside the named owners
};
inline constexpr std::size_t kSubsystemCount = 5;

/// Stable lowercase name ("graph", "overlay", ...) used in gauge keys.
[[nodiscard]] const char* subsystem_name(Subsystem s) noexcept;

/// Process-wide live/peak byte table, one cache-line-padded cell per
/// subsystem. The tagged allocator calls charge()/discharge(); everything
/// else reads.
class MemTracker {
 public:
  void charge(Subsystem s, std::size_t bytes) noexcept;
  void discharge(Subsystem s, std::size_t bytes) noexcept;

  [[nodiscard]] std::int64_t live_bytes(Subsystem s) const noexcept;
  [[nodiscard]] std::int64_t peak_bytes(Subsystem s) const noexcept;
  /// Sum of live bytes across every subsystem.
  [[nodiscard]] std::int64_t total_live_bytes() const noexcept;
  /// High-water mark of the *total* (not the sum of per-subsystem peaks).
  [[nodiscard]] std::int64_t total_peak_bytes() const noexcept;

  /// Writes the current table into the global registry's mem.* gauges.
  void publish_gauges() const;

  static MemTracker& global() noexcept;

 private:
  struct alignas(64) Cell {
    std::atomic<std::int64_t> live{0};
    std::atomic<std::int64_t> peak{0};
  };
  std::array<Cell, kSubsystemCount> cells_{};
  Cell total_{};
};

/// RAII subsystem tag for allocations made through Accounted<T> (the
/// dynamic-tag form). Scopes nest; the innermost wins. Thread-local.
class MemScope {
 public:
  explicit MemScope(Subsystem s) noexcept;
  ~MemScope();
  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;

  /// Innermost active scope on this thread; kOther when none.
  [[nodiscard]] static Subsystem current() noexcept;

 private:
  Subsystem prev_;
};

namespace detail {
/// Sentinel template tag: resolve the subsystem from MemScope at
/// allocation time instead of the template parameter.
inline constexpr std::uint8_t kDynamicTag = 0xFF;
}  // namespace detail

/// Tagged counting allocator. With an explicit Subsystem the tag is a
/// compile-time constant; Accounted<T> (default tag) captures
/// MemScope::current() at construction. The tag lives in the allocator
/// instance and propagates with the container's memory on copy/move/swap,
/// so deallocate() always credits the subsystem that allocate() debited.
template <typename T, std::uint8_t Tag = detail::kDynamicTag>
class Accounted {
 public:
  using value_type = T;
  /// Non-type template parameters defeat allocator_traits' default rebind;
  /// spell it out.
  template <typename U>
  struct rebind {
    using other = Accounted<U, Tag>;
  };
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  Accounted() noexcept
      : tag_(Tag == detail::kDynamicTag
                 ? static_cast<std::uint8_t>(MemScope::current())
                 : Tag) {}
  explicit Accounted(Subsystem s) noexcept
      : tag_(static_cast<std::uint8_t>(s)) {}
  template <typename U>
  Accounted(const Accounted<U, Tag>& other) noexcept  // NOLINT(google-explicit-constructor): allocator rebind
      : tag_(other.tag()) {}

  T* allocate(std::size_t n) {
    MemTracker::global().charge(subsystem(), n * sizeof(T));
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    MemTracker::global().discharge(subsystem(), n * sizeof(T));
    std::allocator<T>{}.deallocate(p, n);
  }

  [[nodiscard]] Subsystem subsystem() const noexcept {
    return static_cast<Subsystem>(tag_);
  }
  [[nodiscard]] std::uint8_t tag() const noexcept { return tag_; }

  template <typename U>
  [[nodiscard]] bool operator==(const Accounted<U, Tag>& other) const noexcept {
    return tag_ == other.tag();
  }

 private:
  std::uint8_t tag_;
};

/// Convenience aliases for the heavy owners. The enum spelling keeps call
/// sites readable: AccountedVector<NodeId, Subsystem::kGraph>.
template <typename T, Subsystem S>
using Tagged = Accounted<T, static_cast<std::uint8_t>(S)>;

template <typename T, Subsystem S>
using AccountedVector = std::vector<T, Tagged<T, S>>;

// -- RSS ---------------------------------------------------------------------

/// Resident-set sample from /proc/self/status. Zero fields when the file is
/// unavailable (non-Linux).
struct RssSample {
  std::int64_t rss_bytes = 0;       ///< VmRSS
  std::int64_t rss_peak_bytes = 0;  ///< VmHWM
};

/// The one sanctioned /proc read (fenced into obs/ like obs/time.hpp).
[[nodiscard]] RssSample read_rss();

/// Reads RSS, publishes `mem.rss_bytes` / `mem.rss_peak_bytes`, the
/// per-subsystem live/peak gauges and — when a peer count has been set —
/// `mem.bytes_per_peer` (RSS divided by peers). Call at sample points
/// (round sampler, report write); cheap enough for per-round use.
void poll_memory_gauges();

/// Sets the peer population the bytes-per-peer gauge divides by (0 clears).
/// Benches and the overlay constructor call this.
void set_peer_count(std::size_t n) noexcept;
[[nodiscard]] std::size_t peer_count() noexcept;

// -- budget ------------------------------------------------------------------

/// SEL_MEM_BUDGET in bytes (suffixes k/m/g = 2^10/2^20/2^30, case
/// insensitive); 0 = budget disabled. Parsed once per process.
[[nodiscard]] std::int64_t mem_budget_bytes();

/// True when the budget is armed and live tracked bytes exceed it.
/// check/memory_checks.hpp turns this into a SEL_CHECK violation.
[[nodiscard]] bool budget_exceeded();

/// "graph=12.3MiB overlay=1.1MiB ..." — the breakdown attached to a budget
/// violation and handy for logs. Live bytes per subsystem plus rss.
[[nodiscard]] std::string memory_breakdown();

// -- per-round profiling -----------------------------------------------------

/// True when --mem-profile was passed on the command line (scanned from
/// /proc/self/cmdline once) or SEL_MEM_PROFILE is truthy. Gates per-round
/// mem sampling in obs/sampler.cpp.
[[nodiscard]] bool mem_profile_enabled();

/// Current mem.* values as a flat name→value map (tracked subsystems + RSS
/// + bytes-per-peer). Used by the sampler, the report memory section and
/// the budget dump. Deterministic iteration (std::map).
[[nodiscard]] std::map<std::string, double> memory_values();

}  // namespace sel::obs

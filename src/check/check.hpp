// Runtime protocol invariant checking (SEL_CHECK).
//
// The simulator's correctness rests on structural invariants the paper's
// algorithms maintain implicitly: the ring stays sorted by identifier
// (Sec. II-A), long links stay symmetric between out/in tables (Sec. III-D),
// the LSH index keeps |H| = K buckets (Alg. 5), dissemination trees stay
// acyclic with one parent per node (Sec. II-B), and every subscriber gets a
// notification exactly once. This layer makes those invariants
// machine-checked at runtime, levelled like SEL_OBS:
//
//   SEL_CHECK=off    every call site costs a single predictable branch;
//                    no counters, no allocations, no validation work.
//   SEL_CHECK=cheap  O(1)/sampled spot checks on the hot paths (default).
//   SEL_CHECK=full   complete structural walks after every mutation round —
//                    the debugging mode sanitizer/CI jobs run.
//
// Validators live in the sibling *_checks.hpp headers and return a
// `Result` (std::nullopt = invariant holds). Wired call sites guard with
// `if (sel::check::enabled(...))` and route failures through `enforce()`,
// which calls the installed failure handler (abort by default; tests install
// a capturing handler via ScopedFailureCapture).
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace sel::check {

enum class Level : int { kOff = 0, kCheap = 1, kFull = 2 };

namespace detail {
/// Cached level; -1 until first read (then parsed from SEL_CHECK).
extern std::atomic<int> g_level;
/// Parses SEL_CHECK ("off"/"0"/"false" -> kOff, "full"/"2" -> kFull,
/// everything else -> kCheap) and stores it into g_level.
[[nodiscard]] int init_level_from_env() noexcept;
}  // namespace detail

/// Current check level. First call reads SEL_CHECK; later calls are one
/// relaxed load. set_level() overrides at any time (tests, harnesses).
[[nodiscard]] inline Level level() noexcept {
  const int v = detail::g_level.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<Level>(v);
  return static_cast<Level>(detail::init_level_from_env());
}

void set_level(Level l) noexcept;

/// True when checks at `min` or stricter are active. The off-mode cost of a
/// wired call site is exactly this load + compare.
[[nodiscard]] inline bool enabled(Level min = Level::kCheap) noexcept {
  return level() >= min;
}

/// RAII level override for tests.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level l) noexcept : prev_(level()) { set_level(l); }
  ~ScopedLevel() { set_level(prev_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  Level prev_;
};

/// A detected invariant violation. `invariant` is a stable dotted name
/// (e.g. "overlay.ring.sorted"); `detail` is human-readable context.
struct Violation {
  std::string invariant;
  std::string detail;
};

/// std::nullopt = invariant holds.
using Result = std::optional<Violation>;

/// Handler invoked on violation. The default prints and aborts (matching
/// SEL_ASSERT semantics: a broken structural invariant poisons every result
/// computed after it).
using FailureHandler = std::function<void(const Violation&)>;

/// Installs `h` (empty = restore the abort handler). Returns the previous
/// handler. Not for hot paths; guarded by a mutex.
FailureHandler set_failure_handler(FailureHandler h);

/// Counts the violation into `check.violations` and routes it to the
/// installed handler.
void fail(Violation v);

/// Counts one validator pass into `check.validations` and enforces the
/// result. Returns true when the invariant held.
bool enforce(Result r);

/// RAII capture of violations for tests: installs a handler that records
/// instead of aborting.
class ScopedFailureCapture {
 public:
  ScopedFailureCapture();
  ~ScopedFailureCapture();
  ScopedFailureCapture(const ScopedFailureCapture&) = delete;
  ScopedFailureCapture& operator=(const ScopedFailureCapture&) = delete;

  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] bool empty() const noexcept { return violations_.empty(); }

 private:
  std::vector<Violation> violations_;
  FailureHandler prev_;
};

}  // namespace sel::check

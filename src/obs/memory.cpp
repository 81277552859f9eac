#include "obs/memory.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/env.hpp"
#include "obs/metrics.hpp"

namespace sel::obs {

namespace {

/// CAS high-water update, relaxed: telemetry only, never synchronizes.
void raise_peak(std::atomic<std::int64_t>& peak, std::int64_t v) noexcept {
  std::int64_t cur = peak.load(std::memory_order_relaxed);
  while (v > cur &&
         !peak.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

constexpr std::array<const char*, kSubsystemCount> kNames = {
    "graph", "overlay", "pubsub", "runtime"};

/// "12.3MiB"-style rendering for breakdown dumps.
std::string human_bytes(std::int64_t bytes) {
  char buf[32];
  const double b = static_cast<double>(bytes);
  if (bytes >= (std::int64_t{1} << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB", b / (1 << 20));
  } else if (bytes >= (std::int64_t{1} << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB", b / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldB", static_cast<long long>(bytes));
  }
  return buf;
}

std::atomic<std::size_t> g_peer_count{0};

}  // namespace

const char* subsystem_name(Subsystem s) noexcept {
  const auto i = static_cast<std::size_t>(s);
  return i < kSubsystemCount ? kNames[i] : "unknown";
}

// -- MemTracker --------------------------------------------------------------

void MemTracker::charge(Subsystem s, std::size_t bytes) noexcept {
  const auto delta = static_cast<std::int64_t>(bytes);
  auto& cell = cells_[static_cast<std::size_t>(s) % kSubsystemCount];
  const std::int64_t live =
      cell.live.fetch_add(delta, std::memory_order_relaxed) + delta;
  raise_peak(cell.peak, live);
  const std::int64_t total =
      total_.live.fetch_add(delta, std::memory_order_relaxed) + delta;
  raise_peak(total_.peak, total);
}

void MemTracker::discharge(Subsystem s, std::size_t bytes) noexcept {
  const auto delta = static_cast<std::int64_t>(bytes);
  cells_[static_cast<std::size_t>(s) % kSubsystemCount].live.fetch_sub(
      delta, std::memory_order_relaxed);
  total_.live.fetch_sub(delta, std::memory_order_relaxed);
}

std::int64_t MemTracker::live_bytes(Subsystem s) const noexcept {
  return cells_[static_cast<std::size_t>(s) % kSubsystemCount].live.load(
      std::memory_order_relaxed);
}

std::int64_t MemTracker::peak_bytes(Subsystem s) const noexcept {
  return cells_[static_cast<std::size_t>(s) % kSubsystemCount].peak.load(
      std::memory_order_relaxed);
}

std::int64_t MemTracker::total_live_bytes() const noexcept {
  return total_.live.load(std::memory_order_relaxed);
}

std::int64_t MemTracker::total_peak_bytes() const noexcept {
  return total_.peak.load(std::memory_order_relaxed);
}

void MemTracker::publish_gauges() const {
  if (!enabled()) return;
  auto& reg = MetricsRegistry::global();
  for (std::size_t i = 0; i < kSubsystemCount; ++i) {
    const auto s = static_cast<Subsystem>(i);
    const std::string base = std::string("mem.") + kNames[i];
    reg.gauge(base + ".live_bytes")
        .set(static_cast<double>(live_bytes(s)));
    reg.gauge(base + ".peak_bytes")
        .set(static_cast<double>(peak_bytes(s)));
  }
  reg.gauge("mem.tracked.live_bytes")
      .set(static_cast<double>(total_live_bytes()));
  reg.gauge("mem.tracked.peak_bytes")
      .set(static_cast<double>(total_peak_bytes()));
}

MemTracker& MemTracker::global() noexcept {
  static MemTracker tracker;
  return tracker;
}

// -- RSS ---------------------------------------------------------------------

RssSample read_rss() {
  RssSample sample;
  // /proc/self/status lines look like "VmRSS:      123456 kB". stdio keeps
  // this allocation-free; the file is tiny.
  std::FILE* f = std::fopen("/proc/self/status", "re");
  if (f == nullptr) return sample;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    std::int64_t* field = nullptr;
    const char* rest = nullptr;
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      field = &sample.rss_bytes;
      rest = line + 6;
    } else if (std::strncmp(line, "VmHWM:", 6) == 0) {
      field = &sample.rss_peak_bytes;
      rest = line + 6;
    }
    if (field != nullptr) {
      *field = std::strtoll(rest, nullptr, 10) * 1024;  // value is in kB
      if (sample.rss_bytes != 0 && sample.rss_peak_bytes != 0) break;
    }
  }
  std::fclose(f);
  return sample;
}

void set_peer_count(std::size_t n) noexcept {
  g_peer_count.store(n, std::memory_order_relaxed);
}

std::size_t peer_count() noexcept {
  return g_peer_count.load(std::memory_order_relaxed);
}

void poll_memory_gauges() {
  if (!enabled()) return;
  MemTracker::global().publish_gauges();
  const RssSample rss = read_rss();
  auto& reg = MetricsRegistry::global();
  reg.gauge("mem.rss_bytes").set(static_cast<double>(rss.rss_bytes));
  reg.gauge("mem.rss_peak_bytes")
      .set(static_cast<double>(rss.rss_peak_bytes));
  const std::size_t peers = peer_count();
  if (peers > 0) {
    reg.gauge("mem.bytes_per_peer")
        .set(static_cast<double>(rss.rss_bytes) /
             static_cast<double>(peers));
  }
}

// -- budget ------------------------------------------------------------------

std::int64_t mem_budget_bytes() {
  static const std::int64_t budget = [] {
    const std::string raw = env::get_string("SEL_MEM_BUDGET", "");
    if (raw.empty()) return std::int64_t{0};
    char* end = nullptr;
    const double base = std::strtod(raw.c_str(), &end);
    if (end == raw.c_str() || base < 0) return std::int64_t{0};
    double mult = 1.0;
    switch (std::tolower(static_cast<unsigned char>(*end))) {
      case 'k': mult = 1024.0; break;
      case 'm': mult = 1024.0 * 1024.0; break;
      case 'g': mult = 1024.0 * 1024.0 * 1024.0; break;
      default: break;
    }
    return static_cast<std::int64_t>(base * mult);
  }();
  return budget;
}

bool budget_exceeded() {
  const std::int64_t budget = mem_budget_bytes();
  return budget > 0 && MemTracker::global().total_live_bytes() > budget;
}

std::string memory_breakdown() {
  const auto& tracker = MemTracker::global();
  std::string out;
  for (std::size_t i = 0; i < kSubsystemCount; ++i) {
    if (!out.empty()) out += ' ';
    out += kNames[i];
    out += '=';
    out += human_bytes(tracker.live_bytes(static_cast<Subsystem>(i)));
  }
  out += " tracked_total=";
  out += human_bytes(tracker.total_live_bytes());
  out += " rss=";
  out += human_bytes(read_rss().rss_bytes);
  return out;
}

std::map<std::string, double> memory_values() {
  std::map<std::string, double> out;
  const auto& tracker = MemTracker::global();
  for (std::size_t i = 0; i < kSubsystemCount; ++i) {
    const auto s = static_cast<Subsystem>(i);
    const std::string base = std::string("mem.") + kNames[i];
    out.emplace(base + ".live_bytes",
                static_cast<double>(tracker.live_bytes(s)));
    out.emplace(base + ".peak_bytes",
                static_cast<double>(tracker.peak_bytes(s)));
  }
  out.emplace("mem.tracked.live_bytes",
              static_cast<double>(tracker.total_live_bytes()));
  out.emplace("mem.tracked.peak_bytes",
              static_cast<double>(tracker.total_peak_bytes()));
  const RssSample rss = read_rss();
  out.emplace("mem.rss_bytes", static_cast<double>(rss.rss_bytes));
  out.emplace("mem.rss_peak_bytes", static_cast<double>(rss.rss_peak_bytes));
  const std::size_t peers = peer_count();
  if (peers > 0) {
    out.emplace("mem.bytes_per_peer",
                static_cast<double>(rss.rss_bytes) /
                    static_cast<double>(peers));
  }
  return out;
}

}  // namespace sel::obs

#include "common/log.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "common/env.hpp"

namespace sel {

namespace {

std::atomic<int> g_level{-1};

LogLevel parse_level() {
  return static_cast<LogLevel>(env::get_enum(
      "SELECT_LOG", {"error", "warn", "info", "debug"},
      static_cast<std::size_t>(LogLevel::kWarn)));
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "ERROR";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kDebug: return "DEBUG";
  }
  return "?";
}

}  // namespace

LogLevel log_level() {
  int lv = g_level.load(std::memory_order_relaxed);
  if (lv < 0) {
    lv = static_cast<int>(parse_level());
    g_level.store(lv, std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(lv);
}

void log(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) > static_cast<int>(log_level())) return;
  static std::mutex mutex;
  std::lock_guard lock(mutex);
  std::fprintf(stderr, "[%s] %s\n", level_name(level), message.c_str());
}

}  // namespace sel

// Tiny leveled logger. Experiments are long-running; progress lines go to
// stderr so CSV/table output on stdout stays machine-readable.
// Level is controlled by SELECT_LOG (error|warn|info|debug), default warn.
#pragma once

#include <string>

namespace sel {

enum class LogLevel { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

/// Current global level (parsed once from SELECT_LOG).
[[nodiscard]] LogLevel log_level();

void log(LogLevel level, const std::string& message);

inline void log_error(const std::string& m) { log(LogLevel::kError, m); }
inline void log_warn(const std::string& m) { log(LogLevel::kWarn, m); }
inline void log_info(const std::string& m) { log(LogLevel::kInfo, m); }
inline void log_debug(const std::string& m) { log(LogLevel::kDebug, m); }

}  // namespace sel

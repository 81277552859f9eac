#include "common/env.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/log.hpp"

// POSIX environment table; the unknown-SEL_*-variable scan walks it.
extern char** environ;  // NOLINT(readability-redundant-declaration)

namespace sel {

namespace env {

namespace {

/// Raw value, or nullptr when unset or empty.
const char* raw(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  return (v != nullptr && *v != '\0') ? v : nullptr;
}

std::string lowered(const char* v) {
  std::string s(v);
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

template <typename T>
T range_checked(const std::string& name, T parsed, T fallback, T min_value,
                T max_value) {
  if (parsed < min_value || parsed > max_value) {
    log_warn(name + "=" + std::to_string(parsed) + " outside [" +
             std::to_string(min_value) + ", " + std::to_string(max_value) +
             "]; using default " + std::to_string(fallback));
    return fallback;
  }
  return parsed;
}

}  // namespace

std::int64_t get_int(const std::string& name, std::int64_t fallback,
                     std::int64_t min_value, std::int64_t max_value) {
  const char* v = raw(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v) return fallback;
  return range_checked<std::int64_t>(name, parsed, fallback, min_value,
                                     max_value);
}

double get_double(const std::string& name, double fallback, double min_value,
                  double max_value) {
  const char* v = raw(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v) return fallback;
  return range_checked<double>(name, parsed, fallback, min_value, max_value);
}

bool get_bool(const std::string& name, bool fallback) {
  const char* v = raw(name);
  if (v == nullptr) return fallback;
  const std::string s = lowered(v);
  if (s == "0" || s == "off" || s == "false" || s == "no") return false;
  if (s == "1" || s == "on" || s == "true" || s == "yes") return true;
  return fallback;
}

std::string get_string(const std::string& name, const std::string& fallback) {
  const char* v = raw(name);
  return v != nullptr ? std::string(v) : fallback;
}

std::size_t get_enum(const std::string& name,
                     std::initializer_list<const char*> options,
                     std::size_t fallback_index) {
  const char* v = raw(name);
  if (v == nullptr) return fallback_index;
  const std::string s = lowered(v);
  std::size_t index = 0;
  for (const char* aliases : options) {
    // Walk the pipe-separated alias list of this option.
    const char* start = aliases;
    for (const char* p = aliases;; ++p) {
      if (*p == '|' || *p == '\0') {
        if (s.size() == static_cast<std::size_t>(p - start) &&
            std::equal(start, p, s.begin())) {
          return index;
        }
        if (*p == '\0') break;
        start = p + 1;
      }
    }
    ++index;
  }
  return fallback_index;
}

}  // namespace env

double bench_scale() {
  // Scale 0 would make every experiment degenerate; treat it like any other
  // out-of-range value.
  return env::get_double("SELECT_BENCH_SCALE", 1.0, 1e-6, 1e6);
}

std::size_t scaled(std::size_t n, std::size_t min_n) {
  const double s = bench_scale();
  const auto scaled_n = static_cast<std::size_t>(static_cast<double>(n) * s);
  return std::max(scaled_n, min_n);
}

std::size_t trial_count(std::size_t fallback) {
  return static_cast<std::size_t>(
      env::get_int("SELECT_TRIALS", static_cast<std::int64_t>(fallback), 1,
                   1'000'000));
}

const std::vector<EnvKnob>& env_knobs() {
  static const std::vector<EnvKnob> knobs = {
      {"SEL_OBS", "observability master switch (off disables all telemetry)"},
      {"SEL_CHECK", "invariant checking level: off | cheap | full"},
      {"SEL_TRACE_SAMPLE", "provenance tracing: sample 1-in-N publishes"},
      {"SEL_FAULT",
       "fault plan, e.g. drop=0.05,dup=0.01,spike=0.02,stall=0.01,crash=1e-3"},
      {"SEL_MEM_BUDGET",
       "soft memory budget for tracked bytes, e.g. 512m (k/m/g suffixes)"},
      {"SELECT_BENCH_SCALE", "experiment network-size multiplier"},
      {"SELECT_TRIALS", "independent trials per data point"},
      {"SELECT_LOG", "log level: error | warn | info | debug"},
      {"SELECT_RESULTS_DIR", "bench artifact directory (default results/)"},
  };
  return knobs;
}

std::vector<std::string> unknown_sel_env_vars() {
  std::vector<std::string> unknown;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const char* entry = *e;
    if (std::strncmp(entry, "SEL_", 4) != 0) continue;
    const char* eq = std::strchr(entry, '=');
    const std::string name =
        eq != nullptr ? std::string(entry, eq) : std::string(entry);
    bool known = false;
    for (const auto& knob : env_knobs()) {
      if (name == knob.name) {
        known = true;
        break;
      }
    }
    if (!known) unknown.push_back(name);
  }
  std::sort(unknown.begin(), unknown.end());
  return unknown;
}

void warn_unknown_sel_env_once() {
  static std::once_flag once;
  std::call_once(once, [] {
    for (const auto& name : unknown_sel_env_vars()) {
      log_warn("unknown SEL_* environment variable '" + name +
               "' (typo? known knobs are listed by sel::env_knobs())");
    }
  });
}

}  // namespace sel

#include "common/env.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

namespace sel {
namespace {

bool knob_registered(const std::string& name) {
  const auto& knobs = env_knobs();
  return std::any_of(knobs.begin(), knobs.end(),
                     [&name](const EnvKnob& k) { return name == k.name; });
}

bool flagged_unknown(const std::string& name) {
  const auto unknown = unknown_sel_env_vars();
  return std::find(unknown.begin(), unknown.end(), name) != unknown.end();
}

TEST(EnvKnobs, RegistryCoversTheRuntimeSurface) {
  for (const char* name :
       {"SEL_OBS", "SEL_CHECK", "SEL_TRACE_SAMPLE", "SEL_FAULT", "SEL_RETRY",
        "SEL_RETRY_MAX", "SEL_RETRY_TIMEOUT_S", "SEL_RETRY_BACKOFF",
        "SEL_RETRY_JITTER", "SELECT_BENCH_SCALE", "SELECT_TRIALS"}) {
    EXPECT_TRUE(knob_registered(name)) << name << " missing from env_knobs()";
  }
  for (const auto& k : env_knobs()) {
    EXPECT_NE(k.summary, nullptr);
    EXPECT_GT(std::string(k.summary).size(), 0u) << k.name;
    // Execution is single-threaded: no knob sizes a worker pool.
    EXPECT_EQ(std::string(k.name).find("THREADS"), std::string::npos) << k.name;
  }
}

TEST(EnvKnobs, UnknownSelVariableIsReported) {
  // The classic typo, plus the retired runtime knobs (one event-driven
  // in-process runtime is left): a stale script setting them gets the
  // unknown-knob warning instead of silence.
  for (const char* name : {"SEL_FUALT", "SEL_RUNTIME", "SEL_TRANSPORT",
                           "SEL_RUNTIME_ROUND_S", "SEL_SHARDS"}) {
    ASSERT_EQ(setenv(name, "1", 1), 0);
    EXPECT_TRUE(flagged_unknown(name)) << name;
    ASSERT_EQ(unsetenv(name), 0);
    EXPECT_FALSE(flagged_unknown(name)) << name;
  }
}

TEST(EnvKnobs, RegisteredVariablesAreNotFlagged) {
  ASSERT_EQ(setenv("SEL_FAULT", "drop=0.01", 1), 0);
  EXPECT_FALSE(flagged_unknown("SEL_FAULT"));
  ASSERT_EQ(unsetenv("SEL_FAULT"), 0);
}

TEST(EnvKnobs, SelectPrefixIsOutsideTheScan) {
  // SELECT_* is a distinct prefix (4th char differs); harness-private
  // variables there must not trip the warning.
  ASSERT_EQ(setenv("SELECT_PRIVATE_TEST_ONLY", "1", 1), 0);
  EXPECT_FALSE(flagged_unknown("SELECT_PRIVATE_TEST_ONLY"));
  ASSERT_EQ(unsetenv("SELECT_PRIVATE_TEST_ONLY"), 0);
}

TEST(EnvKnobs, UnknownListIsSortedAndDuplicateFree) {
  ASSERT_EQ(setenv("SEL_ZZZ_TEST", "1", 1), 0);
  ASSERT_EQ(setenv("SEL_AAA_TEST", "1", 1), 0);
  const auto unknown = unknown_sel_env_vars();
  EXPECT_TRUE(std::is_sorted(unknown.begin(), unknown.end()));
  EXPECT_EQ(std::adjacent_find(unknown.begin(), unknown.end()),
            unknown.end());
  EXPECT_TRUE(flagged_unknown("SEL_AAA_TEST"));
  EXPECT_TRUE(flagged_unknown("SEL_ZZZ_TEST"));
  ASSERT_EQ(unsetenv("SEL_ZZZ_TEST"), 0);
  ASSERT_EQ(unsetenv("SEL_AAA_TEST"), 0);
}

TEST(EnvKnobs, WarnOnceIsIdempotent) {
  warn_unknown_sel_env_once();
  warn_unknown_sel_env_once();  // second call must be a cheap no-op
}

// -- typed accessors ----------------------------------------------------------

TEST(EnvTyped, IntFallbackParseAndRange) {
  ::unsetenv("SELECT_TEST_INT_XYZ");
  EXPECT_EQ(env::get_int("SELECT_TEST_INT_XYZ", 7), 7);
  ::setenv("SELECT_TEST_INT_XYZ", "42", 1);
  EXPECT_EQ(env::get_int("SELECT_TEST_INT_XYZ", 7), 42);
  // Unparsable keeps the historical silent-fallback behaviour.
  ::setenv("SELECT_TEST_INT_XYZ", "not_a_number", 1);
  EXPECT_EQ(env::get_int("SELECT_TEST_INT_XYZ", 7), 7);
  // Out of range: warn + fallback, never clamp.
  ::setenv("SELECT_TEST_INT_XYZ", "500", 1);
  EXPECT_EQ(env::get_int("SELECT_TEST_INT_XYZ", 7, 0, 100), 7);
  ::setenv("SELECT_TEST_INT_XYZ", "-3", 1);
  EXPECT_EQ(env::get_int("SELECT_TEST_INT_XYZ", 7, 0, 100), 7);
  ::setenv("SELECT_TEST_INT_XYZ", "100", 1);
  EXPECT_EQ(env::get_int("SELECT_TEST_INT_XYZ", 7, 0, 100), 100);  // inclusive
  ::unsetenv("SELECT_TEST_INT_XYZ");
}

TEST(EnvTyped, DoubleFallbackParseAndRange) {
  ::unsetenv("SELECT_TEST_DBL_XYZ");
  EXPECT_DOUBLE_EQ(env::get_double("SELECT_TEST_DBL_XYZ", 1.5), 1.5);
  ::setenv("SELECT_TEST_DBL_XYZ", "2.5", 1);
  EXPECT_DOUBLE_EQ(env::get_double("SELECT_TEST_DBL_XYZ", 1.5), 2.5);
  ::setenv("SELECT_TEST_DBL_XYZ", "garbage", 1);
  EXPECT_DOUBLE_EQ(env::get_double("SELECT_TEST_DBL_XYZ", 1.5), 1.5);
  ::setenv("SELECT_TEST_DBL_XYZ", "2.0", 1);
  EXPECT_DOUBLE_EQ(env::get_double("SELECT_TEST_DBL_XYZ", 1.5, 0.0, 1.0),
                   1.5);  // out of range -> fallback
  ::unsetenv("SELECT_TEST_DBL_XYZ");
}

TEST(EnvTyped, BoolRecognizesBothAliasSets) {
  ::unsetenv("SELECT_TEST_BOOL_XYZ");
  EXPECT_TRUE(env::get_bool("SELECT_TEST_BOOL_XYZ", true));
  EXPECT_FALSE(env::get_bool("SELECT_TEST_BOOL_XYZ", false));
  for (const char* v : {"0", "off", "false", "no", "OFF", "No"}) {
    ::setenv("SELECT_TEST_BOOL_XYZ", v, 1);
    EXPECT_FALSE(env::get_bool("SELECT_TEST_BOOL_XYZ", true)) << v;
  }
  for (const char* v : {"1", "on", "true", "yes", "ON", "True"}) {
    ::setenv("SELECT_TEST_BOOL_XYZ", v, 1);
    EXPECT_TRUE(env::get_bool("SELECT_TEST_BOOL_XYZ", false)) << v;
  }
  ::setenv("SELECT_TEST_BOOL_XYZ", "maybe", 1);
  EXPECT_TRUE(env::get_bool("SELECT_TEST_BOOL_XYZ", true));
  EXPECT_FALSE(env::get_bool("SELECT_TEST_BOOL_XYZ", false));
  ::unsetenv("SELECT_TEST_BOOL_XYZ");
}

TEST(EnvTyped, StringReturnsRawValue) {
  ::unsetenv("SELECT_TEST_STR_XYZ");
  EXPECT_EQ(env::get_string("SELECT_TEST_STR_XYZ", "x"), "x");
  ::setenv("SELECT_TEST_STR_XYZ", "hello", 1);
  EXPECT_EQ(env::get_string("SELECT_TEST_STR_XYZ", "x"), "hello");
  // Empty counts as unset (consistent with every other accessor).
  ::setenv("SELECT_TEST_STR_XYZ", "", 1);
  EXPECT_EQ(env::get_string("SELECT_TEST_STR_XYZ", "x"), "x");
  ::unsetenv("SELECT_TEST_STR_XYZ");
}

TEST(EnvTyped, EnumMatchesPipeSeparatedAliases) {
  ::unsetenv("SELECT_TEST_ENUM_XYZ");
  const auto levels = {"off|0|false", "cheap|1", "full|2"};
  EXPECT_EQ(env::get_enum("SELECT_TEST_ENUM_XYZ", levels, 1), 1u);
  ::setenv("SELECT_TEST_ENUM_XYZ", "full", 1);
  EXPECT_EQ(env::get_enum("SELECT_TEST_ENUM_XYZ", levels, 1), 2u);
  ::setenv("SELECT_TEST_ENUM_XYZ", "0", 1);  // alias of "off"
  EXPECT_EQ(env::get_enum("SELECT_TEST_ENUM_XYZ", levels, 1), 0u);
  ::setenv("SELECT_TEST_ENUM_XYZ", "FULL", 1);  // case-insensitive
  EXPECT_EQ(env::get_enum("SELECT_TEST_ENUM_XYZ", levels, 1), 2u);
  ::setenv("SELECT_TEST_ENUM_XYZ", "bogus", 1);
  EXPECT_EQ(env::get_enum("SELECT_TEST_ENUM_XYZ", levels, 1), 1u);
  ::unsetenv("SELECT_TEST_ENUM_XYZ");
}

}  // namespace
}  // namespace sel

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/csv.hpp"
#include "common/env.hpp"
#include "common/table.hpp"

namespace sel {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(CsvEscape, PlainFieldUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
}

TEST(CsvEscape, CommaTriggersQuoting) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
}

TEST(CsvEscape, QuotesAreDoubled) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscape, NewlineTriggersQuoting) {
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/select_csv_test.csv";
  {
    CsvWriter w(path, {"n", "hops"});
    ASSERT_TRUE(w.ok());
    w.row({100.0, 2.5});
    w.row({200.0, 3.0});
  }
  const std::string content = read_file(path);
  EXPECT_EQ(content, "n,hops\n100,2.5\n200,3\n");
  std::remove(path.c_str());
}

TEST(CsvWriter, StringRows) {
  const std::string path = ::testing::TempDir() + "/select_csv_str.csv";
  {
    CsvWriter w(path, {"name", "value"});
    w.row(std::vector<std::string>{"a,b", "1"});
  }
  EXPECT_EQ(read_file(path), "name,value\n\"a,b\",1\n");
  std::remove(path.c_str());
}

TEST(CsvWriter, UnopenableFileDegradesGracefully) {
  CsvWriter w("/nonexistent_dir_xyz/file.csv", {"a"});
  EXPECT_FALSE(w.ok());
  w.row({1.0});  // must not crash
}

TEST(TablePrinter, RendersAlignedColumns) {
  TablePrinter t({"system", "hops"});
  t.add_row({"select", "1.5"});
  t.add_row({"symphony", "3.25"});
  const std::string out = t.render();
  EXPECT_NE(out.find("system"), std::string::npos);
  EXPECT_NE(out.find("select"), std::string::npos);
  EXPECT_NE(out.find("symphony"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Fmt, FormatsWithPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(Scaled, AppliesScaleAndFloor) {
  ::setenv("SELECT_BENCH_SCALE", "0.5", 1);
  EXPECT_EQ(scaled(1000, 32), 500u);
  EXPECT_EQ(scaled(10, 32), 32u);  // floor
  ::setenv("SELECT_BENCH_SCALE", "2", 1);
  EXPECT_EQ(scaled(1000, 32), 2000u);
  ::unsetenv("SELECT_BENCH_SCALE");
  EXPECT_EQ(scaled(1000, 32), 1000u);
}

TEST(TrialCount, RespectsEnvAndFallback) {
  ::unsetenv("SELECT_TRIALS");
  EXPECT_EQ(trial_count(5), 5u);
  ::setenv("SELECT_TRIALS", "9", 1);
  EXPECT_EQ(trial_count(5), 9u);
  ::setenv("SELECT_TRIALS", "-1", 1);
  EXPECT_EQ(trial_count(5), 5u);
  ::unsetenv("SELECT_TRIALS");
}

}  // namespace
}  // namespace sel

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "src/util/cli.hpp"
#include "src/util/sparkline.hpp"
#include "src/util/table.hpp"
#include "src/util/timer.hpp"

namespace recover::util {
namespace {

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(1.0, 3), "1.000");
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
  EXPECT_EQ(format_double(0.0, 0), "0");
}

TEST(Table, StoresCellsRowMajor) {
  Table t({"a", "b"});
  t.row().add("x").integer(42);
  t.row().num(1.5, 1).add("y");
  ASSERT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cell(0, 0), "x");
  EXPECT_EQ(t.cell(0, 1), "42");
  EXPECT_EQ(t.cell(1, 0), "1.5");
  EXPECT_EQ(t.cell(1, 1), "y");
}

TEST(Table, PrintAlignsColumns) {
  Table t({"name", "v"});
  t.row().add("long-name").integer(7);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.row().integer(1).integer(2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Cli, DefaultsApplyWithoutArgs) {
  Cli cli("prog", "test");
  cli.flag("n", "bins", "8");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_EQ(cli.integer("n"), 8);
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  Cli cli("prog", "test");
  cli.flag("n", "bins", "8").flag("eps", "epsilon", "0.25").flag(
      "verbose", "chatty", "false");
  const char* argv[] = {"prog", "--n=32", "--eps", "0.5", "--verbose"};
  cli.parse(5, argv);
  EXPECT_EQ(cli.integer("n"), 32);
  EXPECT_DOUBLE_EQ(cli.real("eps"), 0.5);
  EXPECT_TRUE(cli.boolean("verbose"));
}

TEST(Cli, IntListSplitsOnCommas) {
  Cli cli("prog", "test");
  cli.flag("sizes", "sweep", "1,2,3");
  const char* argv[] = {"prog", "--sizes=64,128,256"};
  cli.parse(2, argv);
  const auto v = cli.int_list("sizes");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 64);
  EXPECT_EQ(v[2], 256);
}

// A malformed numeric value exits 2 naming the flag, like an unknown
// flag; it neither throws nor reads a prefix of the token.
void expect_bad_value(const char* token, const char* expected,
                      void (*read)(const Cli&)) {
  Cli cli("prog", "test");
  cli.flag("threads", "workers", "1").flag("sizes", "sweep", "1").flag(
      "eps", "epsilon", "0.25");
  const char* argv[] = {"prog", token};
  cli.parse(2, argv);
  EXPECT_EXIT(read(cli), ::testing::ExitedWithCode(2), expected) << token;
}

TEST(Cli, NumericFlagsRejectMalformedValues) {
  const auto integer = [](const Cli& c) { (void)c.integer("threads"); };
  const auto list = [](const Cli& c) { (void)c.int_list("sizes"); };
  const auto real = [](const Cli& c) { (void)c.real("eps"); };
  expect_bad_value("--threads=x", "bad value 'x' for --threads", integer);
  expect_bad_value("--threads=2abc", "bad value '2abc' for --threads",
                   integer);
  expect_bad_value("--threads=", "bad value '' for --threads", integer);
  expect_bad_value("--threads=99999999999999999999",
                   "bad value '99999999999999999999' for --threads", integer);
  expect_bad_value("--sizes=1,x", "bad value 'x' for --sizes", list);
  expect_bad_value("--eps=0.5x", "bad value '0.5x' for --eps", real);
  expect_bad_value("--eps=abc", "bad value 'abc' for --eps", real);
}

TEST(Cli, NumericFlagsAcceptWholeTokens) {
  Cli cli("prog", "test");
  cli.flag("n", "bins", "8").flag("eps", "epsilon", "0.25").flag(
      "sizes", "sweep", "1");
  const char* argv[] = {"prog", "--n=-3", "--eps=1e-3", "--sizes=4,,-5"};
  cli.parse(4, argv);
  EXPECT_EQ(cli.integer("n"), -3);
  EXPECT_DOUBLE_EQ(cli.real("eps"), 1e-3);
  EXPECT_EQ(cli.int_list("sizes"), (std::vector<std::int64_t>{4, -5}));
}

TEST(Sparkline, EmptyAndFlatSeries) {
  EXPECT_EQ(sparkline({}), "");
  const std::string flat = sparkline({2.0, 2.0, 2.0});
  // Three identical midline glyphs.
  EXPECT_EQ(flat, "▄▄▄");
}

TEST(Sparkline, MonotoneRampUsesFullRange) {
  const std::string ramp = sparkline({0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(ramp, "▁▂▃▄▅▆▇█");
}

TEST(Sparkline, DownsamplingKeepsSpikes) {
  std::vector<double> series(100, 0.0);
  series[57] = 10.0;  // lone spike must survive max-pooling
  const std::string s = sparkline(series, 10);
  EXPECT_NE(s.find("█"), std::string::npos);
}

TEST(BarChart, ScalesToMaximum) {
  const std::string chart = bar_chart({{"a", 2.0}, {"bb", 4.0}}, 8);
  EXPECT_NE(chart.find("a   2.000  |####\n"), std::string::npos);
  EXPECT_NE(chart.find("bb  4.000  |########\n"), std::string::npos);
}

TEST(BarChart, HandlesAllZeroValues) {
  const std::string chart = bar_chart({{"x", 0.0}}, 8);
  EXPECT_NE(chart.find("x  0.000  |\n"), std::string::npos);
}

TEST(ParseDurationMs, AcceptsUnitsAndBareMilliseconds) {
  std::int64_t out = -1;
  ASSERT_TRUE(parse_duration_ms("500ms", out));
  EXPECT_EQ(out, 500);
  ASSERT_TRUE(parse_duration_ms("2s", out));
  EXPECT_EQ(out, 2000);
  ASSERT_TRUE(parse_duration_ms("1.5s", out));
  EXPECT_EQ(out, 1500);
  ASSERT_TRUE(parse_duration_ms("1m", out));
  EXPECT_EQ(out, 60000);
  ASSERT_TRUE(parse_duration_ms("0.5m", out));
  EXPECT_EQ(out, 30000);
  ASSERT_TRUE(parse_duration_ms("250", out));  // bare number = ms
  EXPECT_EQ(out, 250);
  ASSERT_TRUE(parse_duration_ms("0", out));
  EXPECT_EQ(out, 0);
  ASSERT_TRUE(parse_duration_ms("0ms", out));
  EXPECT_EQ(out, 0);
  // Fractions round to the nearest millisecond.
  ASSERT_TRUE(parse_duration_ms("1.0004s", out));
  EXPECT_EQ(out, 1000);
  ASSERT_TRUE(parse_duration_ms("1.0006s", out));
  EXPECT_EQ(out, 1001);
}

TEST(ParseDurationMs, RejectsMalformedNegativeAndOverflow) {
  std::int64_t out = 77;
  for (const char* bad :
       {"", "ms", "s", "m", "abc", "5x", "5 s", "--3s", "1e400", "-1s",
        "-250", "nan", "inf", "1ss", "2ms3", "999999999999999999999"}) {
    EXPECT_FALSE(parse_duration_ms(bad, out)) << bad;
    EXPECT_EQ(out, 77) << bad;  // untouched on failure
  }
}

TEST(CliDurationFlag, ParsesThroughTheFlagInterface) {
  Cli cli("t", "test");
  cli.flag("duration", "window", "2s");
  cli.flag("deadline", "budget", "0");
  const char* argv[] = {"t", "--duration=750ms"};
  cli.parse(2, argv);
  EXPECT_EQ(cli.duration_ms("duration"), 750);
  EXPECT_EQ(cli.duration_ms("deadline"), 0);  // default applies
}

TEST(Timer, MeasuresNonNegativeTime) {
  Timer timer;
  volatile double sink = 0;
  for (int i = 0; i < 1000; ++i) sink = sink + static_cast<double>(i);
  EXPECT_GE(timer.seconds(), 0.0);
  timer.reset();
  EXPECT_GE(timer.seconds(), 0.0);
  EXPECT_LT(timer.seconds(), 10.0);
}

}  // namespace
}  // namespace recover::util

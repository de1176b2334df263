// Utility layer: table formatting, CLI parsing, RNG determinism, timers.
#include <gtest/gtest.h>

#include <sstream>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace icb {
namespace {

TEST(TextTable, AlignsColumnsAndSpans) {
  TextTable t({"Meth.", "Time", "Iter"});
  t.addSpan("Example: test");
  t.addRow({"Fwd", "0:03", "6"});
  t.addRow({"XICI", "0:00", "1"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("Meth."), std::string::npos);
  EXPECT_NE(s.find("-- Example: test"), std::string::npos);
  EXPECT_NE(s.find("XICI"), std::string::npos);
  EXPECT_EQ(t.rowCount(), 3u);
}

TEST(TextTable, FormatMinSec) {
  EXPECT_EQ(formatMinSec(0.0), "0:00.00");
  EXPECT_EQ(formatMinSec(1.5), "0:01.50");
  EXPECT_EQ(formatMinSec(337.0), "5:37");
  EXPECT_EQ(formatMinSec(-3.0), "0:00.00");
}

TEST(TextTable, FormatKb) {
  EXPECT_EQ(formatKb(0), "0K");
  EXPECT_EQ(formatKb(1), "1K");
  EXPECT_EQ(formatKb(1024), "1K");
  EXPECT_EQ(formatKb(1025), "2K");
  EXPECT_EQ(formatKb(936 * 1024), "936K");
}

TEST(CliArgs, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog",     "--depth",  "8",    "--assist=true",
                        "posarg",   "--ratio",  "1.5",  "--flag"};
  CliArgs args(8, argv, {"depth", "assist", "ratio", "flag"});
  EXPECT_EQ(args.getInt("depth", 0), 8);
  EXPECT_TRUE(args.getBool("assist", false));
  EXPECT_TRUE(args.getBool("flag", false));
  EXPECT_DOUBLE_EQ(args.getDouble("ratio", 0.0), 1.5);
  EXPECT_EQ(args.getString("missing", "dflt"), "dflt");
  EXPECT_EQ(args.positional(), std::vector<std::string>{"posarg"});
  EXPECT_TRUE(args.has("depth"));
  EXPECT_FALSE(args.has("nope"));
  EXPECT_THROW((void)args.getBool("depth", false), std::invalid_argument);
}

TEST(CliArgs, UnknownFlagPrintsUsageAndExits2) {
  // A typo must not run the binary with the flag silently ignored.
  const char* argv[] = {"table1_filter", "--job", "1"};
  EXPECT_EXIT(CliArgs(3, argv, {"jobs", "json"}),
              ::testing::ExitedWithCode(2),
              "unknown flag --job\nusage: table1_filter \\[--jobs\\] "
              "\\[--json\\]");
}

TEST(CliArgs, HelpPrintsUsageAndExits0) {
  const char* argv[] = {"table1_filter", "--help"};
  EXPECT_EXIT(CliArgs(2, argv, {"jobs", "json"}),
              ::testing::ExitedWithCode(0),
              "usage: table1_filter \\[--jobs\\] \\[--json\\]");
}

TEST(CliArgs, MalformedNumberPrintsUsageAndExits2) {
  const char* argv[] = {"table1_filter", "--jobs", "abc", "--deadline=2s"};
  const CliArgs args(4, argv, {"jobs", "deadline"});
  EXPECT_EXIT((void)args.getInt("jobs", 0), ::testing::ExitedWithCode(2),
              "--jobs wants a whole number, got 'abc'");
  EXPECT_EXIT((void)args.getDouble("deadline", 0.0),
              ::testing::ExitedWithCode(2),
              "--deadline wants a number, got '2s'");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c(43);
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 10; ++i) differs |= a2.next() != c.next();
  EXPECT_TRUE(differs);
}

TEST(Rng, BoundsRespected) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
    const double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Timer, StopwatchAdvances) {
  Stopwatch w;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  (void)sink;
  EXPECT_GE(w.elapsedSeconds(), 0.0);
  EXPECT_GE(w.elapsedMs(), 0);
}

TEST(Timer, DeadlineSemantics) {
  const Deadline never;
  EXPECT_FALSE(never.isSet());
  EXPECT_FALSE(never.expired());
  const Deadline past = Deadline::afterSeconds(-1.0);
  EXPECT_TRUE(past.isSet());
  EXPECT_TRUE(past.expired());
  const Deadline future = Deadline::afterSeconds(3600.0);
  EXPECT_FALSE(future.expired());
}

}  // namespace
}  // namespace icb

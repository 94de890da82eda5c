// util::flags, the one parser every command line goes through: each
// binder's accepted and rejected values, the spelling rules shared by all
// tables (--flag=value, switches take no value, last one wins, --help),
// and the generated usage text.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/flags.hpp"

namespace dualcast::util {
namespace {

/// Parses `args` against `table`; returns parse_flags' result.
bool parse(const FlagTable& table, std::vector<std::string> args,
           std::vector<std::string>* positional = nullptr) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return parse_flags(table, argv, positional);
}

/// The FlagError message for `args`, or "" when they parse.
std::string error_of(const FlagTable& table, std::vector<std::string> args) {
  try {
    parse(table, std::move(args));
  } catch (const FlagError& error) {
    return error.what();
  }
  return "";
}

TEST(Flags, IntBinderAcceptsTheWholeRangeAndNothingElse) {
  int n = 7;
  const FlagTable table = {int_flag("--n", "N", "a count", n, 1, 100)};
  EXPECT_TRUE(parse(table, {"--n", "1"}));
  EXPECT_EQ(n, 1);
  EXPECT_TRUE(parse(table, {"--n", "100"}));
  EXPECT_EQ(n, 100);
  EXPECT_TRUE(parse(table, {"--n=42"}));
  EXPECT_EQ(n, 42);
  EXPECT_TRUE(parse(table, {"--n", "3", "--n", "5"})) << "last one wins";
  EXPECT_EQ(n, 5);

  EXPECT_EQ(error_of(table, {"--n"}), "--n requires a value");
  for (const char* bad : {"abc", "1x", "0", "101", "", " 1", "1 ", "+2",
                          " -1", "-1", "0x10", "99999999999999999999"}) {
    EXPECT_EQ(error_of(table, {"--n", bad}),
              std::string("--n: bad value \"") + bad + "\"")
        << "value \"" << bad << "\"";
  }
  EXPECT_EQ(error_of(table, {"--n=abc"}), "--n: bad value \"abc\"");
  EXPECT_EQ(n, 5) << "a rejected value leaves the field alone";
}

TEST(Flags, SignedBinderTakesANegativeValueFromTheNextArgument) {
  int skew = 0;
  const FlagTable table = {int_flag("--skew", "S", "offset", skew,
                                    std::numeric_limits<int>::min())};
  EXPECT_TRUE(parse(table, {"--skew", "-3"}));
  EXPECT_EQ(skew, -3);
  EXPECT_TRUE(parse(table, {"--skew=-2147483648"}));
  EXPECT_EQ(skew, std::numeric_limits<int>::min());
  EXPECT_NE(error_of(table, {"--skew", "2147483648"}), "") << "overflow";
  EXPECT_NE(error_of(table, {"--skew", "+3"}), "");
  EXPECT_NE(error_of(table, {"--skew", " -3"}), "");
}

TEST(Flags, UnsignedBinderRejectsEverySign) {
  std::uint64_t bytes = 0;
  const FlagTable table = {int_flag("--bytes", "B", "budget", bytes, 0)};
  EXPECT_TRUE(parse(table, {"--bytes", "18446744073709551615"}));
  EXPECT_EQ(bytes, std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(parse(table, {"--bytes=0"}));
  EXPECT_EQ(bytes, 0u);
  for (const char* bad : {" -1", "-1", "+2", "18446744073709551616", "1x"}) {
    EXPECT_EQ(error_of(table, {"--bytes", bad}),
              std::string("--bytes: bad value \"") + bad + "\"");
  }
}

TEST(Flags, Int64BinderHonorsAnExplicitUpperBound) {
  std::int64_t watermark = 0;
  const FlagTable table = {int_flag("--min", "B", "watermark", watermark, 0)};
  EXPECT_TRUE(parse(table, {"--min", "9223372036854775807"}));
  EXPECT_EQ(watermark, std::numeric_limits<std::int64_t>::max());
  EXPECT_NE(error_of(table, {"--min", "9223372036854775808"}), "");
  EXPECT_NE(error_of(table, {"--min", "-1"}), "");
}

TEST(Flags, PositiveDoubleBinder) {
  double seconds = 0.3;
  const FlagTable table = {
      positive_double_flag("--min-time", "S", "seconds", seconds)};
  EXPECT_TRUE(parse(table, {"--min-time", "0.25"}));
  EXPECT_DOUBLE_EQ(seconds, 0.25);
  EXPECT_TRUE(parse(table, {"--min-time=2"}));
  EXPECT_DOUBLE_EQ(seconds, 2.0);
  for (const char* bad : {"0", "-1", "abc", "1x", " 1", "+1", ""}) {
    EXPECT_EQ(error_of(table, {"--min-time", bad}),
              std::string("--min-time: bad value \"") + bad + "\"");
  }
  EXPECT_EQ(error_of(table, {"--min-time"}), "--min-time requires a value");
}

TEST(Flags, ChoiceBinderListsTheSpellings) {
  enum class Mode { a, b, c };
  Mode mode = Mode::a;
  const FlagTable table = {choice_flag(
      "--mode", "M", "mode", mode,
      {{"alpha", Mode::a}, {"beta", Mode::b}, {"gamma", Mode::c}})};
  EXPECT_TRUE(parse(table, {"--mode", "beta"}));
  EXPECT_EQ(mode, Mode::b);
  EXPECT_TRUE(parse(table, {"--mode=gamma"}));
  EXPECT_EQ(mode, Mode::c);
  EXPECT_EQ(error_of(table, {"--mode", "delta"}),
            "--mode: expected \"alpha\", \"beta\" or \"gamma\", got \"delta\"");
  EXPECT_EQ(error_of(table, {"--mode"}), "--mode requires a value");
}

TEST(Flags, StringBinderTakesAnyValueIncludingDashes) {
  std::string path = "default";
  const FlagTable table = {string_flag("--out", "FILE", "path", path)};
  EXPECT_TRUE(parse(table, {"--out", "-"}));
  EXPECT_EQ(path, "-");
  EXPECT_TRUE(parse(table, {"--out", "--help"}))
      << "a value is taken verbatim, even one that looks like a flag";
  EXPECT_EQ(path, "--help");
  EXPECT_TRUE(parse(table, {"--out=a=b"}));
  EXPECT_EQ(path, "a=b");
  EXPECT_TRUE(parse(table, {"--out="}));
  EXPECT_EQ(path, "");
  EXPECT_EQ(error_of(table, {"--out"}), "--out requires a value");
}

TEST(Flags, SwitchesTakeNoValue) {
  bool on = false;
  int calls = 0;
  const FlagTable table = {switch_flag("--on", "turn on", on),
                           switch_flag("--count", "count calls",
                                       [&calls] { ++calls; })};
  EXPECT_TRUE(parse(table, {"--on", "--count", "--count"}));
  EXPECT_TRUE(on);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(error_of(table, {"--on=v"}), "--on does not take a value");
  EXPECT_EQ(error_of(table, {"--on="}), "--on does not take a value");
}

TEST(Flags, ImpliesSetsItsFlagOnlyWhenGiven) {
  bool sim = false;
  std::uint64_t seed = 1;
  const FlagTable table = {
      implies(int_flag("--seed", "S", "seed", seed, 0), sim)};
  EXPECT_TRUE(parse(table, {}));
  EXPECT_FALSE(sim);
  EXPECT_NE(error_of(table, {"--seed", "x"}), "");
  EXPECT_FALSE(sim) << "a rejected value implies nothing";
  EXPECT_TRUE(parse(table, {"--seed", "1"}));
  EXPECT_TRUE(sim) << "even the default value implies it";
}

TEST(Flags, UnknownOptionsAndPositionals) {
  bool on = false;
  const FlagTable table = {switch_flag("--on", "turn on", on)};
  EXPECT_EQ(error_of(table, {"--of"}), "unknown option \"--of\"");
  EXPECT_EQ(error_of(table, {"--of=1"}), "unknown option \"--of=1\"");
  EXPECT_EQ(error_of(table, {"-x"}), "unknown option \"-x\"");
  EXPECT_EQ(error_of(table, {"name"}), "unexpected argument \"name\"");

  std::vector<std::string> names;
  EXPECT_TRUE(parse(table, {"a", "--on", "b/"}, &names));
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b/"}));
}

TEST(Flags, HelpStopsParsingWhereverItAppears) {
  int n = 1;
  const FlagTable table = {int_flag("--n", "N", "a count", n, 1)};
  EXPECT_FALSE(parse(table, {"--help"}));
  EXPECT_FALSE(parse(table, {"-h"}));
  EXPECT_FALSE(parse(table, {"--n", "4", "--help", "--bogus"}));
  EXPECT_EQ(n, 4);
  EXPECT_NE(error_of(table, {"--bogus", "--help"}), "")
      << "arguments before --help are still checked";
}

TEST(Flags, UsageTextListsEveryFlagWithItsValueName) {
  int n = 1;
  bool on = false;
  const FlagTable table = {
      int_flag("--count", "N",
               "a long help paragraph that has to wrap onto a second line "
               "because it is longer than one terminal row",
               n, 1),
      switch_flag("--a-very-long-switch-name", "short help", on)};
  std::ostringstream os;
  print_flags(os, table);
  const std::string text = os.str();
  EXPECT_NE(text.find("  --count N"), std::string::npos) << text;
  EXPECT_NE(text.find("  --a-very-long-switch-name\n"), std::string::npos)
      << "a name wider than the column gets its own line: " << text;
  std::istringstream lines(text);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_LE(line.size(), 78u) << line;
    ++count;
  }
  EXPECT_EQ(count, 4) << text;
}

}  // namespace
}  // namespace dualcast::util

// The command-line contract, driven by the tables that define it: every
// flag of every experiment-service subcommand rejects a missing or
// malformed value with exit status 1 and a diagnostic naming the flag,
// appears in its subcommand's --help, and keeps its documented range; the
// run-options group parses into RunOptions; the driver's usage lists every
// subcommand.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "scenario/cli.hpp"
#include "service/service_cli.hpp"

namespace dualcast {
namespace {

struct Outcome {
  int status = 0;
  std::string out;
  std::string err;
};

/// Runs the driver's entry point on `args` (argv[0] is supplied).
Outcome run(std::vector<std::string> args) {
  args.insert(args.begin(), "dualcast_bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  Outcome outcome;
  outcome.status =
      scenario::run_main(static_cast<int>(argv.size()), argv.data(), {});
  outcome.err = ::testing::internal::GetCapturedStderr();
  outcome.out = ::testing::internal::GetCapturedStdout();
  return outcome;
}

bool rejects(const util::Flag& flag, const std::string& value) {
  try {
    flag.set(value);
  } catch (const util::FlagError&) {
    return true;
  }
  return false;
}

TEST(CliContract, EveryFlagRejectsAMissingOrMalformedValueByName) {
  for (const service::Subcommand& command : service::subcommands()) {
    const service::Invocation invocation = command.invoke();
    for (const util::Flag& flag : invocation.flags) {
      SCOPED_TRACE(std::string(command.name) + " " + flag.name);
      if (flag.value_name.empty()) {
        const Outcome given = run({command.name, flag.name + "=v"});
        EXPECT_EQ(given.status, 1);
        EXPECT_NE(given.err.find(flag.name + " does not take a value"),
                  std::string::npos)
            << given.err;
        continue;
      }
      const Outcome missing = run({command.name, flag.name});
      EXPECT_EQ(missing.status, 1);
      EXPECT_NE(missing.err.find(flag.name + " requires a value"),
                std::string::npos)
          << missing.err;
      // String-valued flags (paths, tokens) accept any text; every other
      // binder rejects "abc", and with it whitespace and a '+' sign.
      if (!rejects(flag, "abc")) continue;
      EXPECT_TRUE(rejects(flag, " 1"));
      EXPECT_TRUE(rejects(flag, "+1"));
      for (const std::vector<std::string>& args :
           {std::vector<std::string>{command.name, flag.name, "abc"},
            std::vector<std::string>{command.name, flag.name + "=abc"}}) {
        const Outcome bad = run(args);
        EXPECT_EQ(bad.status, 1);
        EXPECT_NE(bad.err.find(flag.name + ": "), std::string::npos)
            << bad.err;
      }
    }
  }
}

TEST(CliContract, EveryDeclaredFlagAppearsInItsSubcommandsHelp) {
  for (const service::Subcommand& command : service::subcommands()) {
    SCOPED_TRACE(command.name);
    const Outcome help = run({command.name, "--help"});
    EXPECT_EQ(help.status, 0);
    EXPECT_EQ(help.err, "");
    EXPECT_NE(help.out.find(command.synopsis), std::string::npos);
    for (const util::Flag& flag : command.invoke().flags) {
      const std::string line =
          "  " + flag.name +
          (flag.value_name.empty() ? "" : " " + flag.value_name);
      EXPECT_NE(help.out.find(line), std::string::npos)
          << "missing \"" << line << "\" in:\n"
          << help.out;
    }
  }
}

TEST(CliContract, DriverUsageListsEverySubcommandAndDriverFlag) {
  const Outcome help = run({"--help"});
  EXPECT_EQ(help.status, 0);
  for (const service::Subcommand& command : service::subcommands()) {
    EXPECT_NE(help.out.find(std::string("  ") + command.name + " " +
                            command.synopsis),
              std::string::npos)
        << command.name << " missing from:\n"
        << help.out;
  }
  scenario::RunOptions options;
  for (const util::Flag& flag : util::concat(
           {scenario::run_option_flags(options),
            scenario::scheduler_flags(options)})) {
    EXPECT_NE(help.out.find("  " + flag.name), std::string::npos)
        << flag.name;
  }
  for (const char* flag : {"--list", "--all", "--json"}) {
    EXPECT_NE(help.out.find(std::string("  ") + flag), std::string::npos)
        << flag;
  }
}

TEST(CliContract, RunOptionGroupsParseIntoRunOptions) {
  scenario::RunOptions options;
  const util::FlagTable flags = util::concat(
      {scenario::run_option_flags(options),
       scenario::scheduler_flags(options)});
  std::vector<std::string> args{"--engine",  "scalar", "--rng=per-node",
                                "--history", "full",   "--trials",
                                "3",         "--smoke", "--sweep-threads",
                                "2"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  ASSERT_TRUE(util::parse_flags(flags, argv, nullptr));
  EXPECT_EQ(options.engine, scenario::EnginePath::scalar);
  EXPECT_EQ(options.rng, RngMode::per_node);
  EXPECT_EQ(options.history, HistoryPolicy::full);
  EXPECT_EQ(options.trials_override, 3);
  EXPECT_TRUE(options.smoke);
  EXPECT_EQ(options.sweep_threads, 2);
  EXPECT_EQ(options.threads, 1);
}

TEST(CliContract, DriverProbesExitOne) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--threads", "0"},
        std::vector<std::string>{"--trials", "abc"},
        std::vector<std::string>{"fig1/static-global-clique", "--trials",
                                 " +2"},
        std::vector<std::string>{"--bogus"}}) {
    const Outcome outcome = run(args);
    EXPECT_EQ(outcome.status, 1) << args[0];
    EXPECT_NE(outcome.err.find("error: "), std::string::npos) << outcome.err;
  }
}

TEST(CliContract, ServeRejectsTheSchedulerFlags) {
  for (const char* flag : {"--threads", "--sweep-threads"}) {
    const Outcome outcome =
        run({"serve", "fig1/static-global-clique", "--smoke", flag, "2"});
    EXPECT_EQ(outcome.status, 1) << flag;
    EXPECT_NE(outcome.err.find(std::string("unknown option \"") + flag),
              std::string::npos)
        << outcome.err;
  }
}

TEST(CliContract, FlagsKeepTheirRanges) {
  struct Case {
    const char* command;
    const char* flag;
    const char* value;
    bool accepted;
  };
  const Case cases[] = {
      {"serve", "--workers", "0", true},
      {"serve", "--lease-ttl", "0", true},
      {"serve", "--shard-tasks", "0", false},
      {"serve", "--cache-max-bytes", "18446744073709551615", true},
      {"serve", "--cache-max-bytes", " -1", false},
      {"serve", "--cache-max-bytes", "-1", false},
      {"worker", "--max-shards", "0", false},
      {"worker", "--slow-fs-ms", "0", true},
      {"worker", "--op-deadline", "2147483647", true},
      {"worker", "--op-deadline", "2147483648", false},
      {"worker", "--fault-crash-op", "0", true},
      {"worker", "--fs-sim-seed", "18446744073709551615", true},
      {"daemon", "--max-cycles", "0", true},
      {"daemon", "--load100", "0", true},
      {"daemon", "--cores", "0", false},
      {"daemon", "--clock-skew", "-5", true},
      {"daemon", "--stall-ms", "0", true},
      {"daemon", "--min-free-bytes", "9223372036854775807", true},
      {"daemon", "--min-free-bytes", "9223372036854775808", false},
      {"daemon", "--placement", "fair", true},
      {"daemon", "--placement", "lifo", false},
      {"soak", "--clock-skew", "-1", false},
      {"soak", "--slow-fs-ms", "0", false},
      {"soak", "--stall-ms", "0", false},
      {"soak", "--kills", "0", true},
      {"soak", "--lease-ttl", "0", true},
      {"soak", "--min-free-bytes", "9223372036854775808", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.command) + " " + c.flag + " \"" + c.value +
                 "\"");
    const service::Invocation invocation =
        service::find_subcommand(c.command)->invoke();
    const auto flag = std::find_if(
        invocation.flags.begin(), invocation.flags.end(),
        [&](const util::Flag& f) { return f.name == c.flag; });
    ASSERT_NE(flag, invocation.flags.end());
    EXPECT_EQ(!rejects(*flag, c.value), c.accepted);
  }
}

}  // namespace
}  // namespace dualcast

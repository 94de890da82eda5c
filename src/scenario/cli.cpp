#include "scenario/cli.hpp"

#include <iostream>
#include <map>
#include <set>

#include "service/service_cli.hpp"

namespace dualcast::scenario {
namespace {

void print_usage(std::ostream& os, const char* binary,
                 const util::FlagTable& flags) {
  os << "usage: " << binary << " [scenario-name-or-prefix ...] [options]\n"
     << "       " << binary << " <subcommand> [subcommand options]\n"
     << "\noptions:\n";
  util::print_flags(os, flags);
  os << "\nexperiment-service subcommands (see `" << binary
     << " <subcommand> --help`):\n";
  for (const service::Subcommand& command : service::subcommands()) {
    os << "  " << command.name << " " << command.synopsis << "\n";
  }
}

void print_list(std::ostream& os) {
  // Grouped by catalog tier — the "tier/" prefix of the scenario name
  // (fig1/, scale/, ext/, ...) — with each sweep's task volume spelled
  // out, so `--list` doubles as a sizing sheet for service jobs.
  std::vector<std::string> tiers;
  std::map<std::string, std::vector<const ScenarioSpec*>> by_tier;
  for (const ScenarioSpec* spec : scenarios().all()) {
    const std::size_t slash = spec->name.find('/');
    const std::string tier = slash == std::string::npos
                                 ? std::string("(untiered)")
                                 : spec->name.substr(0, slash + 1);
    if (by_tier.find(tier) == by_tier.end()) tiers.push_back(tier);
    by_tier[tier].push_back(spec);
  }
  os << "registered scenarios:\n";
  for (const std::string& tier : tiers) {
    const std::vector<const ScenarioSpec*>& specs = by_tier[tier];
    os << "\n" << tier << "  (" << specs.size()
       << (specs.size() == 1 ? " scenario)\n" : " scenarios)\n");
    for (const ScenarioSpec* spec : specs) {
      const long tasks = static_cast<long>(spec->sweep.size()) *
                         static_cast<long>(spec->columns.size()) *
                         static_cast<long>(spec->trials);
      os << "  " << spec->name << "\n      " << spec->title << "\n      "
         << spec->sweep.size() << " point"
         << (spec->sweep.size() == 1 ? "" : "s") << " x "
         << spec->columns.size() << " column"
         << (spec->columns.size() == 1 ? "" : "s") << " x " << spec->trials
         << " trial" << (spec->trials == 1 ? "" : "s") << " = " << tasks
         << " tasks\n";
    }
  }
}

}  // namespace

util::FlagTable run_option_flags(RunOptions& options) {
  return {
      util::switch_flag("--smoke",
                        "tiny-scale run of the selection (default: all): one "
                        "small sweep point, 1 trial, capped rounds",
                        options.smoke),
      util::int_flag("--trials", "N", "override each scenario's trial count",
                     options.trials_override, 1),
      util::choice_flag(
          "--engine", "E",
          "node driver: \"kernel\" (default; batch SoA kernels, "
          "scalar-adapter fallback for algorithms without a port) or "
          "\"scalar\" (the scalar adapter for every algorithm). Results are "
          "byte-identical for both",
          options.engine,
          {{"kernel", EnginePath::kernel}, {"scalar", EnginePath::scalar}}),
      util::choice_flag(
          "--rng", "M",
          "kernel-path coin streams: \"per-node\" (default; byte-identical "
          "to the scalar adapter) or \"word\" (word-parallel block streams, "
          "64 coins per draw ladder; same distribution, different sample "
          "paths; requires --engine kernel)",
          options.rng,
          {{"per-node", RngMode::per_node}, {"word", RngMode::word}}),
      util::choice_flag(
          "--history", "P",
          "history retention per trial: \"lean\" (default; O(n) "
          "aggregates, auto-falls back to full for adversaries that read the "
          "trace) or \"full\"",
          options.history,
          {{"full", HistoryPolicy::full}, {"lean", HistoryPolicy::lean}}),
  };
}

util::FlagTable scheduler_flags(RunOptions& options) {
  return {
      util::int_flag("--threads", "N",
                     "thread-pool width over trials (default 1; results are "
                     "identical for every N)",
                     options.threads, 1),
      util::int_flag("--sweep-threads", "N",
                     "sweep-point-level scheduler: flatten every (sweep point "
                     "x column x trial) into one work queue over N workers "
                     "(default 1; results are identical for every N)",
                     options.sweep_threads, 1),
  };
}

std::vector<const ScenarioSpec*> resolve_selection(
    const std::vector<std::string>& names) {
  std::vector<const ScenarioSpec*> selection;
  std::set<std::string> seen;
  for (const std::string& name : names) {
    const auto matched = scenarios().match(name);
    if (matched.empty()) {
      // get() throws with the list of known names.
      scenarios().get(name);
    }
    for (const ScenarioSpec* spec : matched) {
      if (seen.insert(spec->name).second) selection.push_back(spec);
    }
  }
  return selection;
}

int run_main(int argc, char** argv,
             const std::vector<std::string>& default_names) {
  if (argc >= 2 && service::find_subcommand(argv[1]) != nullptr) {
    return service::service_main(argc, argv);
  }

  std::vector<std::string> names;
  std::string json_path;
  RunOptions options;
  options.out = &std::cout;
  bool list_only = false;
  bool run_all = false;
  const util::FlagTable flags = util::concat(
      {run_option_flags(options), scheduler_flags(options),
       {util::switch_flag("--list",
                          "list registered scenarios (grouped by catalog "
                          "tier, with sweep sizes) and exit",
                          list_only),
        util::switch_flag("--all", "run every registered scenario", run_all),
        util::string_flag("--json", "FILE",
                          "also write machine-readable result rows to FILE",
                          json_path)}});

  try {
    if (!util::parse_flags(flags, {argv + 1, argv + argc}, &names)) {
      print_usage(std::cout, argv[0], flags);
      return 0;
    }

    if (list_only) {
      print_list(std::cout);
      return 0;
    }

    // Resolve the selection: explicit names (by prefix), --all/--smoke
    // (everything), or the binary's defaults.
    std::vector<const ScenarioSpec*> selection;
    if (!names.empty()) {
      selection = resolve_selection(names);
    } else if (run_all || (options.smoke && default_names.empty())) {
      selection = scenarios().all();
    } else {
      selection = resolve_selection(default_names);
    }
    if (selection.empty()) {
      print_usage(std::cerr, argv[0], flags);
      std::cerr << "\n";
      print_list(std::cerr);
      return 1;
    }

    // run_scenarios is the scenario-level scheduler: with --sweep-threads,
    // every (scenario × point × column × trial) of the whole selection
    // drains from one shared work queue.
    std::vector<std::string> json_rows;
    const std::vector<ScenarioResult> results =
        run_scenarios(selection, options);
    if (!json_path.empty()) {
      for (const ScenarioResult& result : results) {
        append_json_rows(result, json_rows);
      }
      if (!write_json_rows_file(json_path, json_rows)) {
        std::cerr << "error: cannot write " << json_path << "\n";
        return 1;
      }
      std::cout << "\nwrote " << json_rows.size() << " result rows to "
                << json_path << "\n";
    }
  } catch (const std::exception& error) {
    // FlagError and ScenarioError for flag and spec problems, but also
    // engine contract violations and allocation failures: every failure
    // gets a diagnostic instead of a raw terminate.
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace dualcast::scenario

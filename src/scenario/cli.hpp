#pragma once

// The command-line driver behind `dualcast_bench` and the examples.
//
//   <bench> [names...] [--list] [--all] [--smoke] [--json FILE]
//           [--threads N] [--trials N] [--engine E] [--rng M] ...
//   <bench> <subcommand> [subcommand options]
//
// Positional names select scenarios by exact name or prefix
// ("fig1/oblivious-global" runs both the clique and line sweeps). With no
// names, `default_names` runs — the examples pass their scenarios there;
// `dualcast_bench` passes none and requires an explicit selection (or
// --all / --smoke / --list). An argv[1] naming an experiment-service
// subcommand (see service/service_cli.hpp) is dispatched there.

#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "util/flags.hpp"

namespace dualcast::scenario {

int run_main(int argc, char** argv,
             const std::vector<std::string>& default_names);

/// The run options every run path accepts — --smoke --trials --engine
/// --rng --history — bound to `options`. Shared by the plain driver and
/// `serve`, so both accept exactly the same spellings and ranges.
util::FlagTable run_option_flags(RunOptions& options);

/// The plain driver's scheduler widths, --threads and --sweep-threads,
/// bound to `options`.
util::FlagTable scheduler_flags(RunOptions& options);

/// Resolves names (exact or prefix) against the catalog into a deduped
/// selection in first-mention order; throws ScenarioError (listing known
/// names) for a name that matches nothing.
std::vector<const ScenarioSpec*> resolve_selection(
    const std::vector<std::string>& names);

}  // namespace dualcast::scenario

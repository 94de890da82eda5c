#pragma once

// CLI surface of the experiment service: one table of subcommands
// (serve, worker, daemon, merge, status, gc, soak). Each row carries its
// synopsis, its prose, and the flag table its parser and `--help` share;
// the table also drives dispatch and the subcommand list of the driver's
// usage. run_main() forwards here whenever argv[1] names a subcommand, so
// every driver binary carries the full service. worker and daemon install
// SIGTERM/SIGINT handlers for a clean stop (leases released).

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/flags.hpp"

namespace dualcast::service {

/// A subcommand's flag table, bound to a fresh set of options, and the
/// action that runs on those options once argv has been parsed into them.
struct Invocation {
  util::FlagTable flags;
  std::function<int(const std::vector<std::string>& names)> run;
};

struct Subcommand {
  const char* name;      ///< "serve"
  const char* synopsis;  ///< the arguments after the name, for usage lines
  const char* prose;     ///< what it does; printed above its flags by --help
  bool takes_names;      ///< positional scenario names are accepted
  Invocation (*invoke)();
};

/// The subcommand table, in usage order.
std::span<const Subcommand> subcommands();

/// The row named `name`, or nullptr.
const Subcommand* find_subcommand(std::string_view name);

/// Parses argv (argv[1] = subcommand) and runs it. Returns a process exit
/// code; never throws.
int service_main(int argc, char** argv);

}  // namespace dualcast::service

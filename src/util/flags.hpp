#pragma once

// Declarative command-line flags. Each flag is declared once — name, value
// name, help text, accepted range or choices, and the field it sets — and
// the same table drives both parse_flags and the usage text print_flags
// renders, so the two cannot drift apart.
//
// Spelling rules, the same for every table:
//   --flag VALUE and --flag=VALUE are equivalent for every value flag; the
//     spaced form takes the next argument verbatim (so `--skew -1` works);
//   a switch takes no value (`--switch=v` is an error);
//   numbers parse over the whole string with std::from_chars — no
//     whitespace, no '+', no sign on unsigned fields — and are
//     range-checked;
//   a repeated flag keeps its last value;
//   --help / -h stops parsing and asks the caller to print usage.

#include <charconv>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace dualcast::util {

/// A rejected command line: unknown option, missing or malformed value.
/// Messages name the flag: `--x requires a value`, `--x: bad value "v"`.
class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Flag {
  std::string name;        ///< "--trials"
  std::string value_name;  ///< "N" in the usage text; empty for a switch
  std::string help;        ///< one paragraph; print_flags wraps it
  /// Parses and stores a value (a switch receives ""); throws FlagError.
  std::function<void(std::string_view value)> set;
};

using FlagTable = std::vector<Flag>;

/// Throws `<name>: bad value "<value>"`.
[[noreturn]] void throw_bad_value(std::string_view name,
                                  std::string_view value);

/// Throws `<name>: expected "a", "b" or "c", got "<value>"`.
[[noreturn]] void throw_bad_choice(std::string_view name,
                                   const std::vector<std::string>& spellings,
                                   std::string_view value);

/// A switch that runs `on` when given.
Flag switch_flag(std::string name, std::string help, std::function<void()> on);
/// A switch that sets `target` to true.
Flag switch_flag(std::string name, std::string help, bool& target);

Flag string_flag(std::string name, std::string value_name, std::string help,
                 std::string& target);

/// A decimal integer in [lo, hi].
template <typename Int>
Flag int_flag(std::string name, std::string value_name, std::string help,
              Int& target, std::type_identity_t<Int> lo,
              std::type_identity_t<Int> hi = std::numeric_limits<Int>::max()) {
  static_assert(std::is_integral_v<Int>);
  Flag flag{std::move(name), std::move(value_name), std::move(help), {}};
  flag.set = [name = flag.name, &target, lo, hi](std::string_view value) {
    Int parsed{};
    const char* end = value.data() + value.size();
    const auto result = std::from_chars(value.data(), end, parsed);
    if (result.ec != std::errc() || result.ptr != end || parsed < lo ||
        parsed > hi) {
      throw_bad_value(name, value);
    }
    target = parsed;
  };
  return flag;
}

/// A strictly positive decimal number.
Flag positive_double_flag(std::string name, std::string value_name,
                          std::string help, double& target);

/// One of a fixed set of spellings; the error lists them.
template <typename T>
Flag choice_flag(std::string name, std::string value_name, std::string help,
                 T& target, std::vector<std::pair<std::string, T>> choices) {
  Flag flag{std::move(name), std::move(value_name), std::move(help), {}};
  flag.set = [name = flag.name, &target,
              choices = std::move(choices)](std::string_view value) {
    std::vector<std::string> spellings;
    for (const auto& [spelling, choice] : choices) {
      if (spelling == value) {
        target = choice;
        return;
      }
      spellings.push_back(spelling);
    }
    throw_bad_choice(name, spellings, value);
  };
  return flag;
}

/// `flag`, which additionally sets `implied` to true whenever it is given.
Flag implies(Flag flag, bool& implied);

/// The groups' flags in order, as one table.
FlagTable concat(std::initializer_list<FlagTable> groups);

/// Parses `args` against `table`, calling each given flag's setter in
/// order. Arguments that do not start with '-' are appended to
/// `positional`, or rejected when it is null. Returns false as soon as
/// --help or -h is seen (the caller prints usage); throws FlagError.
bool parse_flags(const FlagTable& table, std::span<char* const> args,
                 std::vector<std::string>* positional);

/// Renders the table as usage lines: `  --name VALUE  help...`, the help
/// wrapped into a column.
void print_flags(std::ostream& os, const FlagTable& table);

}  // namespace dualcast::util

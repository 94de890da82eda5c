#include "util/flags.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/strfmt.hpp"

namespace dualcast::util {

void throw_bad_value(std::string_view name, std::string_view value) {
  throw FlagError(str(name, ": bad value \"", value, "\""));
}

void throw_bad_choice(std::string_view name,
                      const std::vector<std::string>& spellings,
                      std::string_view value) {
  std::string expected;
  for (std::size_t i = 0; i < spellings.size(); ++i) {
    if (i > 0) expected += i + 1 == spellings.size() ? " or " : ", ";
    expected += str("\"", spellings[i], "\"");
  }
  throw FlagError(str(name, ": expected ", expected, ", got \"", value, "\""));
}

Flag switch_flag(std::string name, std::string help,
                 std::function<void()> on) {
  return {std::move(name), "", std::move(help),
          [on = std::move(on)](std::string_view) { on(); }};
}

Flag switch_flag(std::string name, std::string help, bool& target) {
  return switch_flag(std::move(name), std::move(help),
                     [&target] { target = true; });
}

Flag string_flag(std::string name, std::string value_name, std::string help,
                 std::string& target) {
  return {std::move(name), std::move(value_name), std::move(help),
          [&target](std::string_view value) { target = value; }};
}

Flag positive_double_flag(std::string name, std::string value_name,
                          std::string help, double& target) {
  Flag flag{std::move(name), std::move(value_name), std::move(help), {}};
  flag.set = [name = flag.name, &target](std::string_view value) {
    double parsed = 0.0;
    const char* end = value.data() + value.size();
    const auto result = std::from_chars(value.data(), end, parsed);
    if (result.ec != std::errc() || result.ptr != end || !(parsed > 0.0)) {
      throw_bad_value(name, value);
    }
    target = parsed;
  };
  return flag;
}

Flag implies(Flag flag, bool& implied) {
  flag.set = [set = std::move(flag.set), &implied](std::string_view value) {
    set(value);
    implied = true;
  };
  return flag;
}

FlagTable concat(std::initializer_list<FlagTable> groups) {
  FlagTable table;
  for (const FlagTable& group : groups) {
    table.insert(table.end(), group.begin(), group.end());
  }
  return table;
}

bool parse_flags(const FlagTable& table, std::span<char* const> args,
                 std::vector<std::string>* positional) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view arg = args[i];
    if (arg == "--help" || arg == "-h") return false;
    if (arg.empty() || arg[0] != '-') {
      if (positional == nullptr) {
        throw FlagError(str("unexpected argument \"", arg, "\""));
      }
      positional->emplace_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const auto flag = std::find_if(
        table.begin(), table.end(),
        [&](const Flag& candidate) { return candidate.name == name; });
    if (flag == table.end()) {
      throw FlagError(str("unknown option \"", arg, "\""));
    }
    if (flag->value_name.empty()) {
      if (eq != std::string_view::npos) {
        throw FlagError(str(flag->name, " does not take a value"));
      }
      flag->set({});
    } else if (eq != std::string_view::npos) {
      flag->set(arg.substr(eq + 1));
    } else {
      if (++i >= args.size()) {
        throw FlagError(str(flag->name, " requires a value"));
      }
      flag->set(args[i]);
    }
  }
  return true;
}

void print_flags(std::ostream& os, const FlagTable& table) {
  constexpr std::size_t kHelpColumn = 24;
  constexpr std::size_t kWidth = 78;
  for (const Flag& flag : table) {
    std::string line = "  " + flag.name;
    if (!flag.value_name.empty()) line += " " + flag.value_name;
    if (line.size() + 2 > kHelpColumn) {
      os << line << "\n";
      line.clear();
    }
    line.resize(kHelpColumn, ' ');
    std::istringstream words(flag.help);
    for (std::string word; words >> word;) {
      if (line.size() > kHelpColumn) {
        if (line.size() + 1 + word.size() > kWidth) {
          os << line << "\n";
          line.assign(kHelpColumn, ' ');
        } else {
          line += ' ';
        }
      }
      line += word;
    }
    os << line << "\n";
  }
}

}  // namespace dualcast::util

//===- support/CommandLine.h - Declarative flag tables ---------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One command-line parser for every tool. A tool declares its flags as a
/// table of rows — name, value placeholder, help text, and an apply
/// callback that runs the flag's strict parser — and parseCommandLine
/// does the rest: both value forms ("--jobs=4" and "--jobs 4"), one-letter
/// aliases ("-j 4"), "--help" generated from the rows, and one diagnostic
/// plus exit code 2 for an unknown flag, a missing or malformed value, or
/// a surplus positional — before the tool does any work.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_SUPPORT_COMMANDLINE_H
#define IMPACT_SUPPORT_COMMANDLINE_H

#include <charconv>
#include <cmath>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace impact {
namespace cli {

/// One row of a tool's flag table.
struct Flag {
  /// Long name, matched as "--Name".
  std::string Name;
  /// Value placeholder for the help ("N", "FILE"); empty for a switch.
  std::string Value;
  /// Help text; '\n' starts an indented continuation line.
  std::string Help;
  /// Stores the flag's value (the empty string for a switch, or for an
  /// optional value that was left out). Returns false with \p Error
  /// filled to reject the value.
  std::function<bool(const std::string &Value, std::string &Error)> Apply;
  /// The value may be left out; only "--Name=VALUE" supplies one, so the
  /// next word is never taken as the value.
  bool OptionalValue = false;
  /// One-letter alias ("-j N"); 0 for none.
  char Short = 0;
  /// When set, "--Name=help" asks for this text (the --analyze rule
  /// table) instead of applying a value; see ParseResult::HelpText.
  std::function<std::string()> ValueHelp = nullptr;
};

/// A row that stores its value verbatim in \p Target (a path, a name).
Flag textFlag(std::string Name, std::string Value, std::string Help,
              std::string &Target);

/// A valueless row that sets \p Target to true.
Flag switchFlag(std::string Name, std::string Help, bool &Target);

struct ParseResult {
  bool Help = false;  ///< --help, -h or a row's "--Name=help" was given
  std::string HelpText; ///< a row's ValueHelp text; "" = the flag table
  std::string Error;  ///< the one diagnostic, naming the flag; "" = none
  std::vector<std::string> Positionals;
};

/// Applies \p Args (argv without the program name) to \p Flags in order,
/// so a repeated flag's last value wins. Stops at "--help"/"-h" or at the
/// first error; at most \p MaxPositionals non-flag words are accepted.
ParseResult parseArgs(const std::vector<std::string> &Args,
                      const std::vector<Flag> &Flags,
                      size_t MaxPositionals = 0);

/// "usage: <Usage> [flags]" followed by one line per row and --help.
std::string renderHelp(std::string_view Usage,
                       const std::vector<Flag> &Flags);

/// parseArgs over argv for a tool whose usage synopsis is \p Usage (its
/// first word names the tool in diagnostics). Prints the help (or a row's
/// ValueHelp text) and exits 0 on a help request; prints one diagnostic to stderr and exits 2 on an error.
/// Returns the positionals.
std::vector<std::string> parseCommandLine(int argc, char **argv,
                                          std::string_view Usage,
                                          const std::vector<Flag> &Flags,
                                          size_t MaxPositionals = 0);

/// The selection grammar of --passes= and --analyze=: "all" (also "",
/// "1", "on") selects every one of \p Names; a comma list of names
/// selects exactly those; "-name" deselects one, and a list of only
/// negatives starts from everything ("all,-x" == "-x"). Fills \p Selected
/// (one entry per name) and returns true, or returns false with
/// \p Unknown set to the first name not in \p Names.
bool parseSelection(std::string_view Spec,
                    const std::vector<std::string_view> &Names,
                    std::vector<bool> &Selected, std::string_view &Unknown);

/// Strict numeric parser for flag values and positionals: the whole of
/// \p Text must be one non-negative decimal number ("12"; "1.25" for a
/// floating \p T), otherwise \p Error says what was expected, \p Out is
/// untouched, and it returns false.
template <typename T>
bool parseNonNegative(std::string_view Text, T &Out, std::string &Error) {
  T Value{};
  const char *Last = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), Last, Value);
  bool Ok = !Text.empty() && Ec == std::errc() && Ptr == Last;
  if constexpr (std::is_signed_v<T>)
    Ok = Ok && Value >= 0;
  if constexpr (std::is_floating_point_v<T>)
    Ok = Ok && std::isfinite(Value);
  if (!Ok) {
    Error = std::string("expected a non-negative ") +
            (std::is_integral_v<T> ? "integer" : "number") + ", got '" +
            std::string(Text) + "'";
    return false;
  }
  Out = Value;
  return true;
}

} // namespace cli
} // namespace impact

#endif // IMPACT_SUPPORT_COMMANDLINE_H

//===- support/CommandLine.cpp ---------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace impact;
using namespace impact::cli;

namespace {

/// A word that reads as a (negative) number is a positional, not a flag,
/// so "-5" reaches the tool's strict positional parser.
bool isFlagWord(const std::string &Arg) {
  return Arg.size() > 1 && Arg[0] == '-' &&
         !(Arg[1] == '.' || (Arg[1] >= '0' && Arg[1] <= '9'));
}

std::string unknownFlag(const std::string &Spelling,
                        const std::vector<Flag> &Flags) {
  std::string Error = "unknown flag '" + Spelling + "'";
  if (Spelling.size() > 2 && Spelling[1] == '-') {
    std::vector<std::string_view> Names = {"help"};
    for (const Flag &F : Flags)
      Names.push_back(F.Name);
    if (std::string_view Best = findClosestMatch(Spelling.substr(2), Names);
        !Best.empty())
      Error += "; did you mean '--" + std::string(Best) + "'?";
  }
  return Error + " (see --help)";
}

} // namespace

Flag cli::textFlag(std::string Name, std::string Value, std::string Help,
                   std::string &Target) {
  return {std::move(Name), std::move(Value), std::move(Help),
          [&Target](const std::string &V, std::string &) {
            Target = V;
            return true;
          }};
}

Flag cli::switchFlag(std::string Name, std::string Help, bool &Target) {
  return {std::move(Name), "", std::move(Help),
          [&Target](const std::string &, std::string &) {
            Target = true;
            return true;
          }};
}

ParseResult cli::parseArgs(const std::vector<std::string> &Args,
                           const std::vector<Flag> &Flags,
                           size_t MaxPositionals) {
  ParseResult R;
  auto Fail = [&](std::string Error) {
    R.Error = std::move(Error);
    return R;
  };
  for (size_t I = 0; I != Args.size(); ++I) {
    const std::string &Arg = Args[I];
    if ((R.Help = Arg == "--help" || Arg == "-h"))
      return R;
    if (!isFlagWord(Arg)) {
      if (R.Positionals.size() == MaxPositionals)
        return Fail("unexpected argument '" + Arg + "' (see --help)");
      R.Positionals.push_back(Arg);
      continue;
    }

    // "--name", "--name=value", or a one-letter alias "-j".
    bool Long = Arg[1] == '-';
    size_t Eq = Long ? Arg.find('=') : std::string::npos;
    std::string Spelling = Arg.substr(0, Eq);
    const Flag *Match = nullptr;
    for (const Flag &F : Flags)
      if (Long ? Spelling == "--" + F.Name
               : Spelling.size() == 2 && F.Short && Spelling[1] == F.Short)
        Match = &F;
    if (!Match)
      return Fail(unknownFlag(Spelling, Flags));

    std::string Value;
    if (Eq != std::string::npos) {
      if (Match->Value.empty())
        return Fail(Spelling + " takes no value");
      Value = Arg.substr(Eq + 1);
    } else if (!Match->Value.empty() && !Match->OptionalValue &&
               I + 1 != Args.size() && Args[I + 1].rfind("--", 0) != 0) {
      Value = Args[++I];
    }
    if (Value == "help" && Match->ValueHelp) {
      R.Help = true;
      R.HelpText = Match->ValueHelp();
      return R;
    }
    if (Value.empty() && !Match->Value.empty() && !Match->OptionalValue)
      return Fail(Spelling + " needs a value (" + Match->Value + ")");
    std::string Error;
    if (!Match->Apply(Value, Error))
      return Fail(Spelling + ": " + Error);
  }
  return R;
}

std::string cli::renderHelp(std::string_view Usage,
                            const std::vector<Flag> &Flags) {
  std::vector<std::pair<std::string, std::string>> Rows;
  for (const Flag &F : Flags) {
    std::string Left = "--" + F.Name;
    if (F.OptionalValue)
      Left += "[=" + F.Value + "]";
    else if (!F.Value.empty())
      Left += "=" + F.Value;
    if (F.Short)
      Left += std::string(", -") + F.Short + " " + F.Value;
    Rows.emplace_back(std::move(Left), F.Help);
  }
  Rows.emplace_back("--help, -h", "print this help and exit");

  size_t Width = 0;
  for (const auto &Row : Rows)
    Width = std::max(Width, Row.first.size());
  std::string Out = "usage: " + std::string(Usage) + " [flags]\n\nflags:\n";
  for (const auto &[Left, Help] : Rows) {
    Out += "  " + padRight(Left, static_cast<unsigned>(Width)) + "  ";
    for (char C : Help)
      Out += C == '\n' ? "\n" + std::string(Width + 4, ' ') : std::string(1, C);
    Out += '\n';
  }
  return Out;
}

std::vector<std::string> cli::parseCommandLine(int argc, char **argv,
                                               std::string_view Usage,
                                               const std::vector<Flag> &Flags,
                                               size_t MaxPositionals) {
  ParseResult R = parseArgs(std::vector<std::string>(argv + 1, argv + argc),
                            Flags, MaxPositionals);
  if (R.Help) {
    std::string Text =
        R.HelpText.empty() ? renderHelp(Usage, Flags) : R.HelpText;
    std::fputs(Text.c_str(), stdout);
    std::exit(0);
  }
  if (!R.Error.empty()) {
    std::string Tool(Usage.substr(0, Usage.find(' ')));
    std::fprintf(stderr, "%s: %s\n", Tool.c_str(), R.Error.c_str());
    std::exit(2);
  }
  return std::move(R.Positionals);
}

bool cli::parseSelection(std::string_view Spec,
                         const std::vector<std::string_view> &Names,
                         std::vector<bool> &Selected,
                         std::string_view &Unknown) {
  std::string_view Trimmed = trimString(Spec);
  std::vector<std::string_view> Tokens;
  bool SawPositive = false;
  if (Trimmed != "1" && Trimmed != "on")
    for (std::string_view Token : splitString(Trimmed, ',')) {
      std::string_view T = trimString(Token);
      if (T.empty())
        continue;
      Tokens.push_back(T);
      SawPositive |= T != "all" && T[0] != '-';
    }
  Selected.assign(Names.size(), !SawPositive);
  for (std::string_view T : Tokens) {
    if (T == "all") {
      Selected.assign(Names.size(), true);
      continue;
    }
    bool Enable = T[0] != '-';
    if (!Enable)
      T.remove_prefix(1);
    auto It = std::find(Names.begin(), Names.end(), T);
    if (It == Names.end()) {
      Unknown = T;
      return false;
    }
    Selected[It - Names.begin()] = Enable;
  }
  return true;
}

//===- driver/ServerScript.cpp ---------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/ServerScript.h"

#include "driver/CompileServer.h"
#include "suite/Suite.h"
#include "support/StringUtils.h"

#include <charconv>
#include <map>

using namespace impact;

namespace {

/// Whitespace-separated words of one command line.
std::vector<std::string> words(std::string_view Line) {
  std::vector<std::string> Out;
  size_t I = 0;
  while (I < Line.size()) {
    while (I < Line.size() && (Line[I] == ' ' || Line[I] == '\t'))
      ++I;
    size_t Start = I;
    while (I < Line.size() && Line[I] != ' ' && Line[I] != '\t')
      ++I;
    if (I > Start)
      Out.emplace_back(Line.substr(Start, I - Start));
  }
  return Out;
}

std::string joinNames(const std::vector<std::string> &Names) {
  std::string Out;
  for (const std::string &N : Names) {
    if (!Out.empty())
      Out += ",";
    Out += N;
  }
  return Out;
}

struct Executor {
  CompileServer &Server;
  std::vector<std::string_view> Lines;
  size_t Next = 0;
  ServerScriptResult Result;

  explicit Executor(CompileServer &Server, std::string_view Script)
      : Server(Server), Lines(splitString(Script, '\n')) {}

  void say(const std::string &Line) { Result.Transcript += Line + "\n"; }

  bool parseError(size_t LineNo, const std::string &Message) {
    Result.Ok = false;
    Result.Error = "line " + std::to_string(LineNo + 1) + ": " + Message;
    return false;
  }

  /// Collects heredoc body lines until the exact \p Delim line.
  bool readHeredoc(size_t CommandLine, const std::string &Delim,
                   std::string &Body) {
    Body.clear();
    while (Next < Lines.size()) {
      std::string_view Line = Lines[Next++];
      if (Line == Delim)
        return true;
      Body.append(Line);
      Body.push_back('\n');
    }
    return parseError(CommandLine, "heredoc not terminated by '" + Delim +
                                       "'");
  }

  bool run() {
    Result.Ok = true;
    while (Next < Lines.size()) {
      size_t LineNo = Next;
      std::string_view Raw = Lines[Next++];
      std::string_view Line = trimString(Raw);
      if (Line.empty() || Line.front() == '#')
        continue;
      std::vector<std::string> W = words(Line);
      const std::string &Verb = W[0];
      std::string Error;

      if (Verb == "unit" || Verb == "replace") {
        if (W.size() != 3 || !startsWith(W[2], "<<") || W[2].size() <= 2)
          return parseError(LineNo, Verb + " needs '<name> <<DELIM'");
        std::string Source;
        if (!readHeredoc(LineNo, W[2].substr(2), Source))
          return false;
        size_t Bytes = Source.size();
        bool Ok = Verb == "unit"
                      ? Server.addUnit(W[1], std::move(Source), &Error)
                      : Server.replaceUnit(W[1], std::move(Source), &Error);
        if (!Ok)
          say("[error] " + Error);
        else
          say("[" + Verb + "] " + W[1] + " (" + std::to_string(Bytes) +
              " bytes)");
      } else if (Verb == "remove") {
        if (W.size() != 2)
          return parseError(LineNo, "remove needs '<name>'");
        if (!Server.removeUnit(W[1], &Error))
          say("[error] " + Error);
        else
          say("[remove] " + W[1]);
      } else if (Verb == "program") {
        if (W.size() < 4 || W[2] != "=")
          return parseError(LineNo, "program needs '<name> = <unit>...'");
        std::vector<std::string> UnitNames(W.begin() + 3, W.end());
        if (!Server.defineProgram(W[1], UnitNames, {}, &Error))
          say("[error] " + Error);
        else
          say("[program] " + W[1] + " = " + joinNames(UnitNames));
      } else if (Verb == "input") {
        if (W.size() < 2)
          return parseError(LineNo, "input needs '<program> [text]'");
        // The input text is everything after the program name, verbatim
        // (minus the surrounding whitespace trim). The name is searched
        // for past the verb, which may contain it ("input t ...").
        size_t After = Line.find(W[1], Verb.size()) + W[1].size();
        std::string Text(trimString(Line.substr(After)));
        std::vector<RunInput> Inputs;
        if (!appendInput(W[1], Text, Inputs, Error))
          say("[error] " + Error);
        else
          say("[input] " + W[1] + " run " + std::to_string(Inputs.size()));
      } else if (Verb == "suite-unit") {
        if (W.size() != 3)
          return parseError(LineNo, "suite-unit needs '<name> <benchmark>'");
        const BenchmarkSpec *Spec = findBenchmark(W[2]);
        if (!Spec)
          say("[error] unknown benchmark '" + W[2] + "'");
        else if (!Server.addUnit(W[1], Spec->Source, &Error))
          say("[error] " + Error);
        else
          say("[suite-unit] " + W[1] + " <- " + W[2]);
      } else if (Verb == "suite-inputs") {
        if (W.size() != 3 && W.size() != 4)
          return parseError(
              LineNo, "suite-inputs needs '<program> <benchmark> [runs]'");
        const BenchmarkSpec *Spec = findBenchmark(W[2]);
        unsigned Runs = 0;
        if (W.size() == 4) {
          auto [Ptr, Ec] = std::from_chars(
              W[3].data(), W[3].data() + W[3].size(), Runs);
          if (Ec != std::errc() || Ptr != W[3].data() + W[3].size())
            return parseError(LineNo, "invalid run count '" + W[3] + "'");
        }
        if (!Spec)
          say("[error] unknown benchmark '" + W[2] + "'");
        else if (!Server.setProgramInputs(
                     W[1], makeBenchmarkInputs(*Spec, Runs), &Error))
          say("[error] " + Error);
        else
          say("[suite-inputs] " + W[1] + " <- " + W[2] + " x" +
              std::to_string(Runs == 0 ? Spec->DefaultRuns : Runs));
      } else if (Verb == "recompile") {
        if (W.size() > 2)
          return parseError(LineNo, "recompile takes at most '<target>'");
        std::string Target = W.size() == 2 ? W[1] : "*";
        RecompileStats Stats = Server.recompile(Target, &Error);
        if (!Error.empty()) {
          say("[error] " + Error);
        } else {
          say("[recompile] target=" + Target +
              " touched=" + std::to_string(Stats.TouchedUnits) + " units=[" +
              joinNames(Stats.TouchedUnitNames) +
              "] programs=" + std::to_string(Stats.RecompiledPrograms) +
              " clean=" + std::to_string(Stats.CleanPrograms) +
              " failed=" + std::to_string(Stats.FailedPrograms));
        }
      } else if (Verb == "stats") {
        if (W.size() != 1)
          return parseError(LineNo, "stats takes no arguments");
        FunctionCacheStats S = Server.getCacheStats();
        say("[stats] hits=" + std::to_string(S.Hits) +
            " misses=" + std::to_string(S.Misses) +
            " entries=" + std::to_string(S.Entries));
      } else {
        return parseError(LineNo, "unknown command '" + Verb + "'");
      }
    }
    return Result.Ok;
  }

  /// `input` appends one run to the program's existing inputs; the server
  /// API replaces the whole vector, so the executor keeps each program's
  /// accumulated runs.
  std::map<std::string, std::vector<RunInput>> AccumulatedInputs;
  bool appendInput(const std::string &Program, std::string Text,
                   std::vector<RunInput> &OutInputs, std::string &Error) {
    std::vector<RunInput> &Inputs = AccumulatedInputs[Program];
    Inputs.push_back({std::move(Text), ""});
    if (!Server.setProgramInputs(Program, Inputs, &Error)) {
      Inputs.pop_back();
      return false;
    }
    OutInputs = Inputs;
    return true;
  }
};

} // namespace

ServerScriptResult impact::runServerScript(CompileServer &Server,
                                           std::string_view Script) {
  Executor E(Server, Script);
  E.run();
  return std::move(E.Result);
}

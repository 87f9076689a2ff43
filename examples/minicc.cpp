//===- examples/minicc.cpp - a command-line MiniC compiler/runner -------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// minicc: compile and run a MiniC file, optionally with profile-guided
/// inline expansion. A minimal but real driver tool over the library.
///
///   minicc prog.mc                 run prog.mc, stdin as program input
///   minicc a.mc b.mc c.il          compile/load several units and link
///                                  them (§2.1 link-time workflow); .il
///                                  files are pre-compiled textual IL
///   minicc --dump-il prog.mc       print the IL instead of running
///   minicc --inline prog.mc        profile on stdin, inline, re-run
///   minicc --growth=N prog.mc      inline code-size budget (default 2.0x)
///   minicc --stats prog.mc         print dynamic statistics after the run
///
//===----------------------------------------------------------------------===//

#include "core/InlinePass.h"
#include "driver/Compilation.h"
#include "driver/Linker.h"
#include "ir/IrReader.h"
#include "ir/IrPrinter.h"
#include "ir/IrVerifier.h"
#include "opt/PassManager.h"
#include "profile/Profiler.h"
#include "support/CommandLine.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace impact;

namespace {

/// Loads one translation unit: MiniC source, or textual IL for files
/// ending in ".il".
bool loadUnit(const std::string &Path, bool RequireMain, Module &Out) {
  std::ifstream File(Path);
  if (!File) {
    std::fprintf(stderr, "minicc: cannot open %s\n", Path.c_str());
    return false;
  }
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  std::string_view PathView(Path);
  if (PathView.size() > 3 &&
      PathView.substr(PathView.size() - 3) == ".il") {
    IrReadResult R = parseModuleText(Buffer.str());
    if (!R.Ok) {
      std::fprintf(stderr, "minicc: %s: %s\n", Path.c_str(), R.Error.c_str());
      return false;
    }
    Out = std::move(R.M);
    return true;
  }
  CompilationResult C = compileMiniC(Buffer.str(), Path, RequireMain);
  if (!C.Ok) {
    std::fprintf(stderr, "%s", C.Errors.c_str());
    return false;
  }
  Out = std::move(C.M);
  return true;
}

} // namespace

int main(int argc, char **argv) {
  bool DumpIl = false, Inline = false, Stats = false;
  // Tool default: small demo programs need more relative headroom than
  // the suite-calibrated library default of 1.25x.
  double GrowthFactor = 2.0;
  std::vector<cli::Flag> Flags = {
      cli::switchFlag("dump-il", "print the IL instead of running", DumpIl),
      cli::switchFlag("inline", "profile on stdin, inline, re-run", Inline),
      {"growth", "N", "inline code-size budget factor (default 2.0)",
       [&GrowthFactor](const std::string &V, std::string &Error) {
         return cli::parseNonNegative(V, GrowthFactor, Error);
       }},
      cli::switchFlag("stats", "print dynamic statistics after the run",
                      Stats),
  };
  std::vector<std::string> Paths = cli::parseCommandLine(
      argc, argv, "minicc file.mc... [file.il...]", Flags, SIZE_MAX);
  if (Paths.empty()) {
    std::fprintf(stderr, "minicc: no input files (see --help); program "
                         "input is read from stdin\n");
    return 2;
  }

  // Single file: compile directly. Several files: separate compilation
  // followed by a link step (§2.1), after which main must exist.
  CompilationResult C;
  if (Paths.size() == 1) {
    // --dump-il may target a library unit with no main (it is how .il
    // files for the link step are produced).
    if (!loadUnit(Paths[0], /*RequireMain=*/!DumpIl, C.M))
      return 1;
  } else {
    std::vector<Module> Units(Paths.size());
    for (size_t I = 0; I != Paths.size(); ++I)
      if (!loadUnit(Paths[I], /*RequireMain=*/false, Units[I]))
        return 1;
    LinkResult L = linkModules(std::move(Units), "a.out");
    if (!L.Ok) {
      std::fprintf(stderr, "minicc: link error: %s\n", L.Error.c_str());
      return 1;
    }
    if (L.M.MainId == kNoFunc) {
      std::fprintf(stderr, "minicc: linked program has no main\n");
      return 1;
    }
    C.M = std::move(L.M);
  }

  std::string Input;
  {
    char Chunk[4096];
    size_t N;
    while ((N = std::fread(Chunk, 1, sizeof(Chunk), stdin)) > 0)
      Input.append(Chunk, N);
  }

  if (Inline) {
    // The paper applies constant folding and jump optimization before
    // inline expansion; do the same so callee size estimates are honest.
    runOptimizationPipeline(C.M);
    // Profile on the given input, then expand.
    ProfileResult P = profileProgram(C.M, {RunInput{Input, ""}});
    if (!P.allRunsOk()) {
      std::fprintf(stderr, "minicc: profiling run failed: %s\n",
                   P.Failures[0].c_str());
      return 1;
    }
    InlineOptions Options;
    Options.CodeGrowthFactor = GrowthFactor;
    InlineResult R = runInlineExpansion(C.M, P.Data, Options);
    std::fprintf(stderr, "minicc: expanded %zu call sites (+%.1f%% code)\n",
                 R.getNumExpanded(), R.getCodeIncreasePercent());
    if (std::string V = verifyModuleText(C.M); !V.empty()) {
      std::fprintf(stderr, "minicc: internal error:\n%s", V.c_str());
      return 1;
    }
  }

  if (DumpIl) {
    std::printf("%s", printModule(C.M).c_str());
    return 0;
  }

  RunOptions Opts;
  Opts.Input = std::move(Input);
  ExecResult R = runProgram(C.M, Opts);
  std::fputs(R.Output.c_str(), stdout);
  if (!R.ok()) {
    std::fprintf(stderr, "minicc: runtime error: %s\n",
                 R.TrapMessage.c_str());
    return 1;
  }
  if (Stats)
    std::fprintf(stderr,
                 "minicc: %llu IL instructions, %llu calls, %llu control "
                 "transfers, peak stack %lld words\n",
                 static_cast<unsigned long long>(R.Stats.InstrCount),
                 static_cast<unsigned long long>(R.Stats.DynamicCalls),
                 static_cast<unsigned long long>(R.Stats.ControlTransfers),
                 static_cast<long long>(R.Stats.PeakStackWords));
  return static_cast<int>(R.ExitCode);
}

//===- examples/pgo_pipeline.cpp - parameterized Table-4 row ------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// pgo_pipeline: run the full profile-guided experiment on one benchmark
/// with the inliner knobs on the command line, printing a Table-4-style
/// row. Useful for exploring the tradeoff space interactively.
///
///   pgo_pipeline [benchmark] [threshold] [growth-factor] [stack-bound]
///                [--trace] [--trace-out=FILE] [--analyze[=RULES]]
///                [--profile-out=FILE] [--profile-in=FILE]
///                [--instrument=full|mincover] [--help]
///   e.g. pgo_pipeline compress 10 1.25 2048 --trace
///
/// --trace prints the planner's per-site decision table (why each call
/// site was or was not expanded, with the numbers behind the verdict);
/// --trace-out= writes the same trace as JSON lines. --profile-out= saves
/// the measured profile; --profile-in= drives the compile from a saved
/// profile without re-running the interpreter's measuring runs.
/// --analyze runs the static analyzer on the post-inline module and
/// prints every finding; RULES selects rules ("all", "dead-store",
/// "all,-uninit-read", ...). Error findings fail the pipeline.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "driver/DecisionTrace.h"
#include "driver/Pipeline.h"
#include "profile/MinCover.h"
#include "profile/ProfileIO.h"
#include "suite/Suite.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace impact;

namespace {

bool matchOption(const char *Arg, const char *Name, std::string &Value) {
  std::string Prefix = std::string("--") + Name + "=";
  if (std::strncmp(Arg, Prefix.c_str(), Prefix.size()) != 0)
    return false;
  Value = Arg + Prefix.size();
  return true;
}

const char *const kUsage =
    "usage: pgo_pipeline [benchmark] [threshold] [growth-factor] "
    "[stack-bound] [--trace] [--trace-out=FILE] [--analyze[=RULES]] "
    "[--profile-out=FILE] [--profile-in=FILE] "
    "[--instrument=full|mincover] [--help]\n";

} // namespace

int main(int argc, char **argv) {
  bool PrintTrace = false;
  bool Analyze = false;
  AnalysisOptions AnalysisOpts;
  InstrumentMode Instrument = InstrumentMode::Full;
  if (const char *Env = std::getenv("IMPACT_INSTRUMENT")) {
    std::string Error;
    if (!parseInstrumentMode(Env, Instrument, &Error)) {
      std::fprintf(stderr, "IMPACT_INSTRUMENT: %s\n", Error.c_str());
      return 2;
    }
  }
  std::string TraceOutPath, ProfileOutPath, ProfileInPath;
  std::vector<const char *> Positional;
  for (int I = 1; I < argc; ++I) {
    std::string Value;
    if (std::strcmp(argv[I], "--help") == 0 ||
        std::strcmp(argv[I], "-h") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (std::strcmp(argv[I], "--trace") == 0)
      PrintTrace = true;
    else if (std::strcmp(argv[I], "--analyze") == 0)
      Analyze = true;
    else if (matchOption(argv[I], "analyze", Value)) {
      std::string Error;
      if (!parseAnalysisRules(Value, AnalysisOpts, &Error)) {
        std::fprintf(stderr, "--analyze: %s\n", Error.c_str());
        return 2;
      }
      Analyze = true;
    } else if (matchOption(argv[I], "instrument", Value)) {
      std::string Error;
      if (!parseInstrumentMode(Value, Instrument, &Error)) {
        std::fprintf(stderr, "--instrument: %s\n", Error.c_str());
        return 2;
      }
    } else if (matchOption(argv[I], "trace-out", Value))
      TraceOutPath = Value;
    else if (matchOption(argv[I], "profile-out", Value))
      ProfileOutPath = Value;
    else if (matchOption(argv[I], "profile-in", Value))
      ProfileInPath = Value;
    else if (std::strncmp(argv[I], "--", 2) == 0) {
      // A typo'd flag must not silently become the threshold positional.
      std::fprintf(stderr, "unknown option '%s'\n%s", argv[I], kUsage);
      return 2;
    } else
      Positional.push_back(argv[I]);
  }

  const char *Name = Positional.size() > 0 ? Positional[0] : "compress";
  const BenchmarkSpec *B = findBenchmark(Name);
  if (!B) {
    std::fprintf(stderr, "unknown benchmark '%s'\n", Name);
    return 2;
  }

  PipelineOptions Options;
  if (Positional.size() > 1)
    Options.Inline.MinArcWeight = std::atof(Positional[1]);
  if (Positional.size() > 2)
    Options.Inline.CodeGrowthFactor = std::atof(Positional[2]);
  if (Positional.size() > 3)
    Options.Inline.StackBound = std::atoll(Positional[3]);
  Options.EmitDecisionTrace = PrintTrace;
  Options.Analyze = Analyze;
  Options.Analysis = AnalysisOpts;
  Options.Instrument = Instrument;

  ProfileData LoadedProfile;
  if (!ProfileInPath.empty()) {
    std::string Error;
    if (!loadProfileFromFile(ProfileInPath, LoadedProfile, &Error)) {
      std::fprintf(stderr, "--profile-in: %s\n", Error.c_str());
      return 2;
    }
    Options.ProfileIn = &LoadedProfile;
  }

  std::printf("benchmark=%s threshold=%.1f growth=%.2fx stack-bound=%lld\n",
              B->Name.c_str(), Options.Inline.MinArcWeight,
              Options.Inline.CodeGrowthFactor,
              static_cast<long long>(Options.Inline.StackBound));

  PipelineResult R = runPipeline(B->Source, B->Name,
                                 makeBenchmarkInputs(*B), Options);
  if (!R.Ok) {
    std::fprintf(stderr, "pipeline failed: %s\n", R.Error.c_str());
    return 1;
  }

  if (!ProfileOutPath.empty()) {
    std::string Error;
    if (!saveProfileToFile(ProfileOutPath, R.ProfileBefore, &Error)) {
      std::fprintf(stderr, "--profile-out: %s\n", Error.c_str());
      return 1;
    }
    std::printf("profile saved to %s\n", ProfileOutPath.c_str());
  }
  if (PrintTrace)
    std::printf("%s", R.DecisionTrace.c_str());
  if (Analyze) {
    if (R.Analysis.Findings.empty())
      std::printf("analyze: clean\n");
    else
      std::printf("%s", R.Analysis.renderText().c_str());
  }
  if (!TraceOutPath.empty()) {
    std::ofstream Trace(TraceOutPath, std::ios::trunc);
    if (!Trace) {
      std::fprintf(stderr, "--trace-out: cannot open '%s'\n",
                   TraceOutPath.c_str());
      return 1;
    }
    Trace << renderDecisionTraceJson(R.Inline.Plan, R.FinalModule, B->Name);
  }

  std::printf("outputs preserved: %s\n", R.outputsMatch() ? "yes" : "NO");
  std::printf("%-10s  code inc  call dec  IL/call  CT/call\n", "benchmark");
  std::printf("%-10s  %7.1f%%  %7.1f%%  %7.0f  %7.0f\n", B->Name.c_str(),
              R.getCodeIncreasePercent(), R.getCallDecreasePercent(),
              R.After.getInstrsPerCall(),
              R.After.getControlTransfersPerCall());
  std::printf("(before: %.0f IL/call, %.0f CT/call, %.0f calls/run)\n",
              R.Before.getInstrsPerCall(),
              R.Before.getControlTransfersPerCall(), R.Before.AvgCalls);
  return 0;
}

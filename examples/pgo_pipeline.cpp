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
///                [flags]       (--help lists the flags)
///   e.g. pgo_pipeline compress 10 1.25 2048 --trace
///
/// --trace prints why each call site was or was not expanded, with the
/// numbers behind the verdict; --analyze prints every analyzer finding
/// on the post-inline module (error findings fail the pipeline).
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "driver/DecisionTrace.h"
#include "driver/Pipeline.h"
#include "profile/ProfileIO.h"
#include "support/FaultInjection.h"
#include "suite/Suite.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace impact;

int main(int argc, char **argv) {
  PipelineOptions Options;
  FaultPlan NoFaults; // pgo_pipeline takes no --faults row
  std::string TraceOutPath, ProfileOutPath, ProfileInPath;
  std::vector<cli::Flag> Flags = {
      cli::switchFlag("trace", "print the planner's per-site decision table",
                      Options.EmitDecisionTrace),
      cli::textFlag("trace-out", "FILE",
                    "write the decision trace as JSON lines", TraceOutPath),
      cli::textFlag("profile-out", "FILE", "save the measured profile",
                    ProfileOutPath),
      cli::textFlag("profile-in", "FILE",
                    "drive the compile from a saved profile", ProfileInPath),
  };
  for (cli::Flag &F :
       getPipelineFlags(Options, NoFaults, {"analyze", "instrument"}))
    Flags.push_back(std::move(F));
  std::vector<std::string> Positional = cli::parseCommandLine(
      argc, argv,
      "pgo_pipeline [benchmark] [threshold] [growth-factor] [stack-bound]",
      Flags, /*MaxPositionals=*/4);

  std::string Name = Positional.size() > 0 ? Positional[0] : "compress";
  const BenchmarkSpec *B = findBenchmark(Name);
  if (!B) {
    std::fprintf(stderr, "unknown benchmark '%s'\n", Name.c_str());
    return 2;
  }
  // The numeric positionals are strictly parsed: "abc" or "-5" exits 2.
  auto Number = [&](size_t I, const char *What, auto &Out) {
    std::string Error;
    if (I >= Positional.size() ||
        cli::parseNonNegative(Positional[I], Out, Error))
      return true;
    std::fprintf(stderr, "pgo_pipeline: %s: %s\n", What, Error.c_str());
    return false;
  };
  if (!Number(1, "threshold", Options.Inline.MinArcWeight) ||
      !Number(2, "growth-factor", Options.Inline.CodeGrowthFactor) ||
      !Number(3, "stack-bound", Options.Inline.StackBound))
    return 2;

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
  if (Options.EmitDecisionTrace)
    std::printf("%s", R.DecisionTrace.c_str());
  if (Options.Analyze) {
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

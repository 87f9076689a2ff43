//===- examples/inline_explorer.cpp - inspect decisions on a benchmark --------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// inline_explorer: pick one of the 12 suite benchmarks and dump how the
/// inliner sees it — the weighted call graph with the $$$/### pseudo
/// nodes, the linear expansion sequence, and the per-site classification
/// with the cost-function verdicts. The paper's Tables 2-4 are aggregates
/// of exactly this information.
///
///   inline_explorer [benchmark]         (default: grep)
///   inline_explorer --dot [benchmark]   emit the call graph as Graphviz
///
//===----------------------------------------------------------------------===//

#include "callgraph/CallGraphBuilder.h"
#include "core/InlinePass.h"
#include "driver/Compilation.h"
#include "profile/Profiler.h"
#include "suite/Suite.h"
#include "support/CommandLine.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace impact;

int main(int argc, char **argv) {
  bool Dot = false;
  std::vector<std::string> Positional = cli::parseCommandLine(
      argc, argv, "inline_explorer [benchmark]",
      {cli::switchFlag("dot", "emit the call graph as Graphviz", Dot)},
      /*MaxPositionals=*/1);
  std::string Name = Positional.empty() ? "grep" : Positional[0];
  const BenchmarkSpec *B = findBenchmark(Name);
  if (!B) {
    std::fprintf(stderr, "unknown benchmark '%s'; pick one of:",
                 Name.c_str());
    for (const BenchmarkSpec &S : getBenchmarkSuite())
      std::fprintf(stderr, " %s", S.Name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  CompilationResult C = compileMiniC(B->Source, B->Name);
  if (!C.Ok) {
    std::fprintf(stderr, "%s", C.Errors.c_str());
    return 1;
  }

  if (!Dot)
    std::printf("== %s: profiling %u runs (%s)\n", B->Name.c_str(),
                B->DefaultRuns, B->InputDescription.c_str());
  ProfileResult P = profileProgram(C.M, makeBenchmarkInputs(*B));
  if (!P.allRunsOk()) {
    std::fprintf(stderr, "profiling failed: %s\n", P.Failures[0].c_str());
    return 1;
  }

  CallGraph G = buildCallGraph(C.M, &P.Data);
  std::vector<std::string> FuncNames;
  for (const Function &F : C.M.Funcs)
    FuncNames.push_back(F.Name);
  if (Dot) {
    std::printf("%s", G.dumpDot(FuncNames).c_str());
    return 0;
  }
  std::printf("\n== weighted call graph (node weight = entries/run, arc "
              "weight = invocations/run)\n");
  std::printf("%s", G.dump(FuncNames).c_str());

  InlineOptions Options;
  InlineResult R = runInlineExpansion(C.M, P.Data, Options);

  std::printf("\n== linear expansion sequence (§3.3, hottest first)\n  ");
  for (FuncId F : R.Linear.Sequence)
    if (!C.M.getFunction(F).IsExternal)
      std::printf("%s ", C.M.getFunction(F).Name.c_str());
  std::printf("\n");

  std::printf("\n== call-site classification and decisions\n");
  for (const SiteInfo &S : R.Classes.Sites) {
    const PlannedSite *Planned = R.Plan.findSite(S.SiteId);
    std::printf("  site#%-4u %-10s -> %-12s w=%9.1f  %-8s", S.SiteId,
                C.M.getFunction(S.Caller).Name.c_str(),
                S.Callee == kNoFunc
                    ? "<pointer>"
                    : C.M.getFunction(S.Callee).Name.c_str(),
                S.Weight, getSiteClassName(S.Class));
    if (S.Reason != UnsafeReason::None)
      std::printf(" (%s)", getUnsafeReasonName(S.Reason));
    if (Planned)
      std::printf("  => %s [%s]", getArcStatusName(Planned->Status),
                  getCostVerdictName(Planned->Verdict));
    std::printf("\n");
  }

  std::printf("\n== result: %zu sites expanded, %llu -> %llu IL (+%.1f%%)\n",
              R.getNumExpanded(),
              static_cast<unsigned long long>(R.SizeBefore),
              static_cast<unsigned long long>(R.SizeAfter),
              R.getCodeIncreasePercent());
  return 0;
}

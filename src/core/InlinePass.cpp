//===- core/InlinePass.cpp -----------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/InlinePass.h"

#include "callgraph/CallGraphBuilder.h"
#include "core/DeadFunctionElimination.h"
#include "opt/PassManager.h"

using namespace impact;

InlineResult impact::runInlineExpansion(Module &M, const ProfileData &Profile,
                                        const InlineOptions &Options) {
  InlineResult Result;
  Result.SizeBefore = M.size();

  CallGraphOptions GraphOptions;
  GraphOptions.AssumeExternalsCallBack = Options.AssumeExternalsCallBack;
  CallGraph G = buildCallGraph(M, &Profile, GraphOptions);

  Result.Classes = classifyCallSites(M, G, Profile, Options);
  Result.Linear = linearize(M, G, Options);
  Result.Plan = planInlining(M, G, Result.Classes, Result.Linear, Options);
  Result.Expansions = executeInlinePlan(M, Result.Plan);

  if (Options.PostInlineOptimize) {
    // Clean up the parameter moves and jump scaffolding of every function
    // that received inlined bodies (the paper leaves this off; ablation).
    // A caller that received several bodies is cleaned once, in order of
    // its first expansion.
    std::vector<char> Cleaned(M.Funcs.size(), 0);
    for (const ExpansionRecord &R : Result.Expansions) {
      if (Cleaned[static_cast<size_t>(R.Caller)])
        continue;
      Cleaned[static_cast<size_t>(R.Caller)] = 1;
      runOptimizationPipeline(M.getFunction(R.Caller), Options.PostOpt,
                              nullptr);
    }
  }

  Result.EliminatedFunctions = eliminateDeadFunctions(M, GraphOptions);

  Result.SizeAfter = M.size();
  return Result;
}

//===- bench/ablation_static_heuristic.cpp - §4.2's open question -------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §4.2: "This observation suggests future research in determining
/// whether or not inline expansion decisions based on program structure
/// analysis without profile information are sufficient. Failure to
/// identify the smallest possible set of safe static calls may result in
/// excessive code expansion."
///
/// This bench runs that comparison: the same inliner driven by (a) real
/// profiles and (b) structure-only weight estimates (loop nesting ^ 10,
/// top-down propagation from main). Both variants are then *measured*
/// with real profiled runs so call elimination is ground truth.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/InlinePass.h"
#include "driver/Compilation.h"
#include "ir/IrVerifier.h"
#include "opt/PassManager.h"
#include "profile/StaticEstimator.h"

#include <cstdio>
#include <cstdlib>

using namespace impact;
using namespace impact::bench;

namespace {

struct VariantResult {
  double CallDec = 0.0;
  double CodeInc = 0.0;
  size_t Expansions = 0;
};

VariantResult runVariant(const BenchmarkSpec &B,
                         const std::vector<RunInput> &Inputs,
                         bool UseStaticEstimate) {
  CompilationResult C = compileMiniC(B.Source, B.Name);
  if (!C.Ok) {
    std::fprintf(stderr, "%s failed to compile\n", B.Name.c_str());
    std::exit(1);
  }
  runOptimizationPipeline(C.M);

  ProfileResult Real = profileProgram(C.M, Inputs);
  if (!Real.allRunsOk()) {
    std::fprintf(stderr, "%s failed to profile\n", B.Name.c_str());
    std::exit(1);
  }

  ProfileData Guidance = UseStaticEstimate
                             ? estimateProfileFromStructure(C.M)
                             : Real.Data;
  InlineResult R = runInlineExpansion(C.M, Guidance, InlineOptions());
  if (!verifyModuleText(C.M).empty()) {
    std::fprintf(stderr, "%s failed verification\n", B.Name.c_str());
    std::exit(1);
  }

  ProfileResult Post = profileProgram(C.M, Inputs);
  if (!Post.allRunsOk() || Post.Outputs != Real.Outputs) {
    std::fprintf(stderr, "%s changed behaviour\n", B.Name.c_str());
    std::exit(1);
  }

  VariantResult V;
  double Before = Real.Data.getAvgDynamicCalls();
  double After = Post.Data.getAvgDynamicCalls();
  V.CallDec = Before == 0.0 ? 0.0 : 100.0 * (Before - After) / Before;
  V.CodeInc = R.getCodeIncreasePercent();
  V.Expansions = R.getNumExpanded();
  return V;
}

} // namespace

int main(int argc, char **argv) {
  cli::parseCommandLine(argc, argv, "ablation_static_heuristic", {});
  std::printf("Ablation: profile-guided vs structure-only inline "
              "decisions (§4.2's open question)\n\n");

  TableWriter T({"benchmark", "profile dec", "static dec", "profile inc",
                 "static inc", "profile exp", "static exp"});
  std::vector<double> ProfDec, StatDec, ProfInc, StatInc;
  for (const BenchmarkSpec &B : getBenchmarkSuite()) {
    std::vector<RunInput> Inputs = makeBenchmarkInputs(B, 4);
    VariantResult Prof = runVariant(B, Inputs, /*UseStaticEstimate=*/false);
    VariantResult Stat = runVariant(B, Inputs, /*UseStaticEstimate=*/true);
    ProfDec.push_back(Prof.CallDec);
    StatDec.push_back(Stat.CallDec);
    ProfInc.push_back(Prof.CodeInc);
    StatInc.push_back(Stat.CodeInc);
    T.addRow({B.Name, formatPercent(Prof.CallDec),
              formatPercent(Stat.CallDec), formatPercent(Prof.CodeInc),
              formatPercent(Stat.CodeInc), std::to_string(Prof.Expansions),
              std::to_string(Stat.Expansions)});
  }
  T.addSeparator();
  T.addRow({"AVG", formatPercent(mean(ProfDec)), formatPercent(mean(StatDec)),
            formatPercent(mean(ProfInc)), formatPercent(mean(StatInc)), "",
            ""});
  std::printf("%s\n", T.render().c_str());
  std::printf("interpretation: where the static column approaches the "
              "profile column, structure analysis suffices; gaps mark the "
              "benchmarks whose hot sites loops alone cannot identify.\n");
  return 0;
}

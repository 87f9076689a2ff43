//===- bench/ablation_threshold.cpp - Weight threshold sweep ------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation for §2.3.3 / §3.4: the arc-weight threshold ("excluding arcs
/// whose weights are below a threshold value"). Sweeps MinArcWeight and
/// reports suite-average call elimination, code growth, and the number of
/// physical expansions — showing the knee the paper's constant (10)
/// exploits: cold sites are numerous but contribute almost no dynamic
/// calls, so raising the threshold slashes compile-time work and code
/// growth at almost no call-elimination cost.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace impact;
using namespace impact::bench;

int main(int argc, char **argv) {
  initBenchHarness(argc, argv);
  std::printf("Ablation: arc-weight threshold (paper default: 10)\n\n");

  TableWriter T({"threshold", "avg call dec", "avg code inc",
                 "expansions", "safe sites"});
  for (double Threshold : {1.0, 5.0, 10.0, 50.0, 200.0, 1000.0}) {
    PipelineOptions Options = baseOptions();
    Options.Inline.MinArcWeight = Threshold;
    std::vector<SuiteRun> Suite =
        runSuiteExperiment(Options, /*RunsOverride=*/4);
    std::vector<double> CallDec, CodeInc;
    size_t Expansions = 0, SafeSites = 0;
    for (const SuiteRun &Run : Suite) {
      if (!Run.Result.Ok)
        continue;
      CallDec.push_back(Run.Result.getCallDecreasePercent());
      CodeInc.push_back(Run.Result.getCodeIncreasePercent());
      Expansions += Run.Result.Inline.getNumExpanded();
      SafeSites += Run.Result.Inline.Classes.countStatic(SiteClass::Safe);
    }
    T.addRow({formatCount(Threshold), formatPercent(mean(CallDec)),
              formatPercent(mean(CodeInc)), std::to_string(Expansions),
              std::to_string(SafeSites)});
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("%s", renderBenchFooter().c_str());
  return 0;
}

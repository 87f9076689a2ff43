//===- bench/table1_characteristics.cpp - Reproduce Table 1 -------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 1 of the paper: benchmark characteristics — static code size in
/// source lines, number of profiled runs, dynamic IL instructions per
/// typical run (thousands), dynamic control transfers other than
/// call/return per run (thousands), and the input description. Our
/// absolute IL counts are smaller than the paper's (its programs are real
/// UNIX tools run on full-size inputs; see EXPERIMENTS.md for the scale
/// discussion) but the *relative* profile — which programs are control-
/// transfer heavy, which barely call — matches.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/StringUtils.h"

#include <cstdio>

using namespace impact;
using namespace impact::bench;

int main(int argc, char **argv) {
  initBenchHarness(argc, argv);
  std::printf("Table 1: Benchmark characteristics\n");
  std::printf("(paper: Hwu & Chang, PLDI 1989, Table 1)\n\n");

  std::vector<SuiteRun> Suite = runSuiteExperiment(baseOptions());

  TableWriter T({"benchmark", "MiniC lines", "runs", "IL's", "control",
                 "input description"});
  for (const SuiteRun &Run : Suite) {
    if (!Run.Result.Ok)
      continue;
    const PhaseMetrics &Before = Run.Result.Before;
    T.addRow({Run.Name, std::to_string(Run.SourceLines),
              std::to_string(Run.Runs),
              formatCount(Before.AvgInstrs / 1000.0) + "K",
              formatCount(Before.AvgControlTransfers / 1000.0) + "K",
              Run.InputDescription});
  }
  std::printf("%s\n", T.render().c_str());

  double TotalIl = 0.0;
  for (const SuiteRun &Run : Suite)
    if (Run.Result.Ok)
      TotalIl += Run.Result.Before.AvgInstrs *
                 static_cast<double>(Run.Runs);
  std::printf("total profiled execution: %s IL instructions "
              "(paper: >3 billion; scale-free metrics)\n",
              formatWithCommas(static_cast<int64_t>(TotalIl)).c_str());
  std::printf("%s", renderBenchFooter().c_str());
  return 0;
}

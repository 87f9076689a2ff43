//===- bench/table3_dynamic_calls.cpp - Reproduce Table 3 ---------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 3 of the paper: dynamic function call behaviour before inline
/// expansion — total dynamic calls per run and the percentage attributable
/// to external / pointer / unsafe / safe static sites. The paper's
/// headline: although safe sites are a small static fraction (~11%), they
/// account for ~69% of dynamic calls — few static sites cover most of the
/// dynamic call traffic.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace impact;
using namespace impact::bench;

int main(int argc, char **argv) {
  initBenchHarness(argc, argv);
  std::printf("Table 3: Dynamic function call behaviour (pre-inline)\n");
  std::printf("(paper: Hwu & Chang, PLDI 1989, Table 3; paper average: "
              "safe sites cover ~69%% of dynamic calls)\n\n");

  std::vector<SuiteRun> Suite = runSuiteExperiment(baseOptions());

  TableWriter T({"benchmark", "calls/run", "external", "pointer", "unsafe",
                 "safe"});
  std::vector<double> Ext, Ptr, Unsafe, Safe;
  for (const SuiteRun &Run : Suite) {
    if (!Run.Result.Ok)
      continue;
    const PhaseMetrics &B = Run.Result.Before;
    double Total = B.DynExternal + B.DynPointer + B.DynUnsafe + B.DynSafe;
    auto Pct = [&](double Part) {
      return Total == 0.0 ? 0.0 : 100.0 * Part / Total;
    };
    Ext.push_back(Pct(B.DynExternal));
    Ptr.push_back(Pct(B.DynPointer));
    Unsafe.push_back(Pct(B.DynUnsafe));
    Safe.push_back(Pct(B.DynSafe));
    T.addRow({Run.Name, formatCount(B.AvgCalls), formatPercent(Ext.back()),
              formatPercent(Ptr.back()), formatPercent(Unsafe.back()),
              formatPercent(Safe.back())});
  }
  T.addSeparator();
  T.addRow({"AVG", "", formatPercent(mean(Ext)), formatPercent(mean(Ptr)),
            formatPercent(mean(Unsafe)), formatPercent(mean(Safe))});
  std::printf("%s\n", T.render().c_str());
  std::printf("paper AVG: safe ~69%% of dynamic calls; unsafe dynamic "
              "share \"amazingly small\"\n");
  std::printf("%s", renderBenchFooter().c_str());
  return 0;
}

//===- bench/table2_static_calls.cpp - Reproduce Table 2 ----------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 2 of the paper: static call-site characteristics — total static
/// sites and the percentage that are external / through pointers / unsafe
/// / safe. The paper's averages: ~65% unsafe, ~11% safe, and "the numbers
/// of static call sites are approximately 1/10 of the program sizes
/// measured in lines of C code".
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/StringUtils.h"

#include <cstdio>

using namespace impact;
using namespace impact::bench;

int main(int argc, char **argv) {
  initBenchHarness(argc, argv);
  std::printf("Table 2: Static function call characteristics\n");
  std::printf("(paper: Hwu & Chang, PLDI 1989, Table 2; paper averages: "
              "unsafe ~65%%, safe ~11%%)\n\n");

  std::vector<SuiteRun> Suite = runSuiteExperiment(baseOptions());

  TableWriter T({"benchmark", "total", "external", "pointer", "unsafe",
                 "safe", "sites/line"});
  std::vector<double> Ext, Ptr, Unsafe, Safe;
  for (const SuiteRun &Run : Suite) {
    if (!Run.Result.Ok)
      continue;
    const Classification &C = Run.Result.Inline.Classes;
    double Total = static_cast<double>(C.getTotalSites());
    auto Pct = [&](SiteClass Class) {
      return Total == 0.0
                 ? 0.0
                 : 100.0 * static_cast<double>(C.countStatic(Class)) / Total;
    };
    Ext.push_back(Pct(SiteClass::External));
    Ptr.push_back(Pct(SiteClass::Pointer));
    Unsafe.push_back(Pct(SiteClass::Unsafe));
    Safe.push_back(Pct(SiteClass::Safe));
    T.addRow({Run.Name, std::to_string(C.getTotalSites()),
              formatPercent(Ext.back()), formatPercent(Ptr.back()),
              formatPercent(Unsafe.back()), formatPercent(Safe.back()),
              formatDouble(Total / Run.SourceLines, 2)});
  }
  T.addSeparator();
  T.addRow({"AVG", "", formatPercent(mean(Ext)), formatPercent(mean(Ptr)),
            formatPercent(mean(Unsafe)), formatPercent(mean(Safe)), ""});
  std::printf("%s\n", T.render().c_str());
  std::printf("paper AVG:        external+pointer ~24%%, unsafe ~65%%, "
              "safe ~11%%\n");
  std::printf("%s", renderBenchFooter().c_str());
  return 0;
}

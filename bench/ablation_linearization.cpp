//===- bench/ablation_linearization.cpp - Linearization policy sweep ----------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation for §3.3: the linear expansion sequence. Compares the paper's
/// heuristic (sort by execution count) against random orders, bottom-up
/// (callees first — the paper's stated ideal for tree call graphs), and
/// plain declaration order. The linear order determines which arcs are
/// even considered (callee must precede caller), so a bad order forfeits
/// call elimination.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace impact;
using namespace impact::bench;

namespace {

void reportPolicy(TableWriter &T, const char *Label,
                  const PipelineOptions &Options) {
  std::vector<SuiteRun> Suite =
      runSuiteExperiment(Options, /*RunsOverride=*/4);
  std::vector<double> CallDec, CodeInc;
  size_t Expansions = 0, OrderViolations = 0;
  for (const SuiteRun &Run : Suite) {
    if (!Run.Result.Ok)
      continue;
    CallDec.push_back(Run.Result.getCallDecreasePercent());
    CodeInc.push_back(Run.Result.getCodeIncreasePercent());
    Expansions += Run.Result.Inline.getNumExpanded();
    for (const PlannedSite &S : Run.Result.Inline.Plan.Sites)
      OrderViolations += S.Verdict == CostVerdict::OrderViolation ? 1 : 0;
  }
  T.addRow({Label, formatPercent(mean(CallDec)),
            formatPercent(mean(CodeInc)), std::to_string(Expansions),
            std::to_string(OrderViolations)});
}

} // namespace

int main(int argc, char **argv) {
  initBenchHarness(argc, argv);
  std::printf("Ablation: linearization policy (paper: random placement, "
              "then sort by execution count)\n\n");

  TableWriter T({"policy", "avg call dec", "avg code inc", "expansions",
                 "order violations"});

  PipelineOptions Options = baseOptions();
  Options.Inline.Policy = LinearizationPolicy::ProfileSorted;
  reportPolicy(T, "profile-sorted (paper)", Options);

  Options.Inline.Policy = LinearizationPolicy::BottomUp;
  reportPolicy(T, "bottom-up (callees first)", Options);

  Options.Inline.Policy = LinearizationPolicy::SourceOrder;
  reportPolicy(T, "declaration order", Options);

  Options.Inline.Policy = LinearizationPolicy::Random;
  for (uint64_t Seed : {1ull, 2ull, 3ull}) {
    Options.Inline.RandomSeed = Seed;
    std::string Label = "random seed " + std::to_string(Seed);
    reportPolicy(T, Label.c_str(), Options);
  }

  std::printf("%s\n", T.render().c_str());
  std::printf("%s", renderBenchFooter().c_str());
  return 0;
}

//===- bench/ablation_limits.cpp - Code budget and stack bound sweeps ---------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation for the two hazard limits of §2.3: the program-size budget
/// (code explosion, §2.3.1) and the control-stack bound (stack explosion,
/// §2.3.2). The first sweep traces the code-growth / call-elimination
/// tradeoff curve; the second shows the stack bound gating expansion into
/// recursive regions (peak stack words of the recursive benchmarks stay
/// bounded). The stack hazard and the linear order are the only guards
/// against expanding into recursion.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/StringUtils.h"

#include <cstdio>

using namespace impact;
using namespace impact::bench;

int main(int argc, char **argv) {
  initBenchHarness(argc, argv);
  std::printf("Ablation: code-size budget (CodeGrowthFactor)\n\n");
  {
    TableWriter T({"budget", "avg call dec", "avg code inc", "expansions",
                   "budget rejections"});
    for (double Factor : {1.0, 1.1, 1.25, 1.5, 2.0, 4.0, 16.0}) {
      PipelineOptions Options = baseOptions();
      Options.Inline.CodeGrowthFactor = Factor;
      std::vector<SuiteRun> Suite =
          runSuiteExperiment(Options, /*RunsOverride=*/4);
      std::vector<double> CallDec, CodeInc;
      size_t Expansions = 0, Rejections = 0;
      for (const SuiteRun &Run : Suite) {
        if (!Run.Result.Ok)
          continue;
        CallDec.push_back(Run.Result.getCallDecreasePercent());
        CodeInc.push_back(Run.Result.getCodeIncreasePercent());
        Expansions += Run.Result.Inline.getNumExpanded();
        for (const PlannedSite &S : Run.Result.Inline.Plan.Sites)
          Rejections += S.Verdict == CostVerdict::BudgetExceeded ? 1 : 0;
      }
      T.addRow({formatDouble(Factor, 2) + "x",
                formatPercent(mean(CallDec)), formatPercent(mean(CodeInc)),
                std::to_string(Expansions), std::to_string(Rejections)});
    }
    std::printf("%s\n", T.render().c_str());
  }

  std::printf("Ablation: control-stack bound (StackBound, words)\n");
  std::printf("(driven by a §2.3.2-shaped stress program: a recursive "
              "driver hot-calling a large-frame helper)\n\n");
  {
    // m()/n() from the paper: expanding the big-frame n into the
    // recursive m multiplies stack usage by the recursion depth.
    const char *StressSource = R"(
extern int getchar();
extern int print_int(int v);
int scratch(int x) {
  int buf[900];
  buf[0] = x;
  buf[899] = x + 1;
  return buf[0] + buf[899];
}
int walk(int n) {
  if (n <= 0) return 0;
  // scratch runs twice per level so it outranks walk in the execution-
  // count linearization; the arc is then order-feasible and only the
  // stack hazard can refuse it.
  return walk(n - 1) + scratch(n) + scratch(n - 1);
}
int main() {
  int d;
  int c;
  d = 0;
  c = getchar();
  while (c != -1) { d = d + 1; c = getchar(); }
  print_int(walk(d));
  return 0;
}
)";
    std::vector<RunInput> Inputs;
    for (unsigned I = 0; I != 4; ++I)
      Inputs.push_back(RunInput{std::string(40 + I * 10, 'x'), ""});

    TableWriter T({"stack bound", "call dec", "stack rejections",
                   "peak stack before", "peak stack after"});
    for (int64_t Bound : {64ll, 512ll, 2048ll, 65536ll, 1ll << 30}) {
      // A single serial pipeline outside the suite batches: the harness
      // flags do not reach it.
      PipelineOptions Options;
      Options.Inline.StackBound = Bound;
      Options.Inline.MinArcWeight = 1.0;
      Options.Inline.CodeGrowthFactor = 4.0; // isolate the stack knob
      PipelineResult R =
          runPipeline(StressSource, "stack-stress", Inputs, Options);
      if (!R.Ok) {
        std::fprintf(stderr, "stack stress failed: %s\n", R.Error.c_str());
        return 1;
      }
      size_t Rejections = 0;
      for (const PlannedSite &S : R.Inline.Plan.Sites)
        Rejections += S.Verdict == CostVerdict::StackHazard ? 1 : 0;
      // Re-measure peak stack with a direct run.
      CompilationResult Base = compileMiniC(StressSource, "stack-stress");
      RunOptions RunOpts;
      RunOpts.Input = Inputs.back().Input;
      ExecResult BeforeRun = runProgram(Base.M, RunOpts);
      ExecResult AfterRun = runProgram(R.FinalModule, RunOpts);
      T.addRow({std::to_string(Bound),
                formatPercent(R.getCallDecreasePercent()),
                std::to_string(Rejections),
                std::to_string(BeforeRun.Stats.PeakStackWords),
                std::to_string(AfterRun.Stats.PeakStackWords)});
    }
    std::printf("%s\n", T.render().c_str());
  }
  std::printf("%s", renderBenchFooter().c_str());
  return 0;
}

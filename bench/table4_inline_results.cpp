//===- bench/table4_inline_results.cpp - Reproduce Table 4 --------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 4 of the paper — the headline result: per benchmark, the static
/// code increase from inline expansion, the percentage of dynamic calls
/// eliminated, and the post-inline densities (IL instructions and control
/// transfers between consecutive calls). Paper averages: code +16.5%
/// (SD 12.0), calls -58.7% (SD 32.1), 3653 IL's and 1108 CT's per call.
/// Our columns print next to the paper's so the shape comparison is
/// immediate. Also reproduced: the §4.4 post-inline dynamic call mix
/// (paper: 56.1% external / 2.8% pointer / 18.0% unsafe / 23.1% safe).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace impact;
using namespace impact::bench;

int main(int argc, char **argv) {
  initBenchHarness(argc, argv);
  std::printf("Table 4: Inline expansion results\n");
  std::printf("(paper: Hwu & Chang, PLDI 1989, Table 4; columns marked "
              "[paper] are its values)\n\n");

  std::vector<SuiteRun> Suite = runSuiteExperiment(baseOptions());
  const std::vector<PaperTable4Row> &Paper = getPaperTable4();

  TableWriter T({"benchmark", "code inc", "[paper]", "call dec", "[paper]",
                 "IL's/call", "[paper]", "CT's/call", "[paper]"});
  std::vector<double> CodeInc, CallDec, IlPerCall, CtPerCall;
  for (size_t I = 0; I != Suite.size(); ++I) {
    const SuiteRun &Run = Suite[I];
    if (!Run.Result.Ok)
      continue;
    const PaperTable4Row &P = Paper[I];
    CodeInc.push_back(Run.Result.getCodeIncreasePercent());
    CallDec.push_back(Run.Result.getCallDecreasePercent());
    IlPerCall.push_back(Run.Result.After.getInstrsPerCall());
    CtPerCall.push_back(Run.Result.After.getControlTransfersPerCall());
    T.addRow({Run.Name, formatPercent(CodeInc.back()),
              formatPercent(P.CodeInc), formatPercent(CallDec.back()),
              formatPercent(P.CallDec), formatCount(IlPerCall.back()),
              formatCount(P.IlPerCall), formatCount(CtPerCall.back()),
              formatCount(P.CtPerCall)});
  }
  T.addSeparator();
  T.addRow({"AVG", formatPercent(mean(CodeInc)), "16.5%",
            formatPercent(mean(CallDec)), "58.7%",
            formatCount(mean(IlPerCall)), "3653",
            formatCount(mean(CtPerCall)), "1108"});
  T.addRow({"SD", formatPercent(stddev(CodeInc)), "12.0%",
            formatPercent(stddev(CallDec)), "32.1%",
            formatCount(stddev(IlPerCall)), "5804",
            formatCount(stddev(CtPerCall)), "1832"});
  std::printf("%s\n", T.render().c_str());

  // §4.4 follow-up: class mix of the dynamic calls that remain.
  double Ext = 0, Ptr = 0, Unsafe = 0, Safe = 0;
  for (const SuiteRun &Run : Suite) {
    if (!Run.Result.Ok)
      continue;
    Ext += Run.Result.After.DynExternal;
    Ptr += Run.Result.After.DynPointer;
    Unsafe += Run.Result.After.DynUnsafe;
    Safe += Run.Result.After.DynSafe;
  }
  double Total = Ext + Ptr + Unsafe + Safe;
  if (Total > 0) {
    std::printf("post-inline dynamic call mix: external %s, pointer %s, "
                "unsafe %s, safe %s\n",
                formatPercent(100 * Ext / Total).c_str(),
                formatPercent(100 * Ptr / Total).c_str(),
                formatPercent(100 * Unsafe / Total).c_str(),
                formatPercent(100 * Safe / Total).c_str());
    std::printf("paper:                        external 56.1%%, pointer "
                "2.8%%, unsafe 18.0%%, safe 23.1%%\n");
  }

  // §4.4: after expansion, calls vs control transfers.
  double Calls = 0, Cts = 0;
  for (const SuiteRun &Run : Suite) {
    if (!Run.Result.Ok)
      continue;
    Calls += Run.Result.After.AvgCalls;
    Cts += Run.Result.After.AvgControlTransfers;
  }
  std::printf("calls as share of post-inline control transfers: %s "
              "(paper: ~1%%)\n\n",
              formatPercent(100 * Calls / (Calls + Cts)).c_str());

  // Ablation lattice: what loop-invariant code motion
  // (opt/LoopInvariantCodeMotion.h) recovers on top of the classic
  // quartet, with and without inline expansion. The inline arm also runs
  // the same set post-inline on every caller that received a body
  // (InlineOptions::PostOpt), which is where LICM earns its keep — the
  // expander's parameter moves and loop-invariant callee setup are born
  // there.
  std::printf("Ablation: post-inline cleanup passes (cumulative; "
              "quartet = fold,jump,copy,dce)\n\n");
  TableWriter A({"passes", "inline", "static IL", "dyn IL/run",
                 "dyn CT/run"});
  // Per-program post-inline dynamic IL, for the headline delta below.
  std::vector<double> BaselineDynIl, FullDynIl;
  std::vector<std::string> ProgramNames;
  for (bool Licm : {false, true}) {
    OptOptions Passes;
    Passes.LoopInvariantCodeMotion = Licm;
    for (bool Inline : {false, true}) {
      PipelineOptions Options = baseOptions();
      Options.PreOpt = Passes;
      if (Inline) {
        Options.Inline.PostInlineOptimize = true;
        Options.Inline.PostOpt = Passes;
      } else {
        // No arc clears an infinite threshold, so the plan stays empty
        // and the "after" phase measures the optimizer alone.
        Options.Inline.MinArcWeight = 1e18;
      }
      std::vector<SuiteRun> Ablation =
          runSuiteExperiment(Options, /*RunsOverride=*/4);
      uint64_t StaticIl = 0;
      std::vector<double> DynIl, DynCt;
      for (const SuiteRun &Run : Ablation) {
        if (!Run.Result.Ok)
          continue;
        StaticIl += Run.Result.After.StaticSize;
        DynIl.push_back(Run.Result.After.AvgInstrs);
        DynCt.push_back(Run.Result.After.AvgControlTransfers);
        if (Inline && !Licm) {
          BaselineDynIl.push_back(Run.Result.After.AvgInstrs);
          ProgramNames.push_back(Run.Name);
        }
        if (Inline && Licm)
          FullDynIl.push_back(Run.Result.After.AvgInstrs);
      }
      A.addRow({Licm ? "+licm" : "quartet", Inline ? "yes" : "no",
                std::to_string(StaticIl), formatCount(mean(DynIl)),
                formatCount(mean(DynCt))});
    }
  }
  std::printf("%s\n", A.render().c_str());
  if (BaselineDynIl.size() == FullDynIl.size()) {
    size_t Best = BaselineDynIl.size();
    double BestDec = 0.0;
    for (size_t I = 0; I != BaselineDynIl.size(); ++I) {
      if (BaselineDynIl[I] <= 0.0)
        continue;
      double Dec = 100.0 * (BaselineDynIl[I] - FullDynIl[I]) /
                   BaselineDynIl[I];
      if (Dec > BestDec) {
        BestDec = Dec;
        Best = I;
      }
    }
    if (Best != BaselineDynIl.size())
      std::printf("largest post-inline dynamic IL reduction from "
                  "licm: %s (%s fewer IL/run)\n",
                  ProgramNames[Best].c_str(),
                  formatPercent(BestDec).c_str());
  }

  std::printf("%s", renderBenchFooter().c_str());
  return 0;
}

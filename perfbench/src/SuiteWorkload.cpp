//===- perfbench/src/SuiteWorkload.cpp - suite_default / suite_vm_mincover -===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The suite workloads: a closed loop over the paper's 12 programs in which
/// each op is one program's full §4 experiment (compile, pre-opt, profile,
/// inline, re-profile) through runPipeline. A pass runs every program once;
/// the loop runs whole passes, so every program weighs the same in every
/// figure.
///
/// The traced run alternates an untraced pass (runPipeline) with a traced
/// pass that composes the same experiment from the layers' public entry
/// points, one span per call, and checks that each traced op reproduces
/// its untraced twin's outputs and PhaseMetrics bit for bit.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Trace.h"

#include "callgraph/CallGraphBuilder.h"
#include "driver/Compilation.h"
#include "ir/IrVerifier.h"
#include "suite/Suite.h"
#include "support/Rng.h"
#include "support/Stopwatch.h"

#include <map>
#include <optional>
#include <stdexcept>

using namespace impact;
using namespace perfbench;

namespace {

struct Program {
  const BenchmarkSpec *Spec = nullptr;
  std::vector<RunInput> Inputs;
  /// Outputs of the reference engine on the un-inlined module.
  std::vector<std::string> Reference;
};

/// The seed's input window for program \p ProgramIndex: \p Runs
/// consecutive inputs of the suite's generator, starting at an offset in
/// [0, 64) drawn from the seed. Input i of a generator depends only on i,
/// so a window is the same on every machine.
std::vector<RunInput> makeInputWindow(const BenchmarkSpec &Spec, uint64_t Seed,
                                      unsigned ProgramIndex, unsigned Runs) {
  unsigned Offset =
      static_cast<unsigned>(Rng(Seed * 131 + ProgramIndex).nextBelow(64));
  std::vector<RunInput> All = makeBenchmarkInputs(Spec, Offset + Runs);
  return {All.begin() + Offset, All.end()};
}

/// Inputs, reference outputs, and one warm-up op. Throws on any failure:
/// a workload whose set-up fails measures nothing.
std::vector<Program> setUp(const Args &A, const PipelineOptions &O,
                           ExecEngine ReferenceEngine) {
  std::vector<Program> Programs;
  const std::vector<BenchmarkSpec> &Suite = getBenchmarkSuite();
  for (unsigned I = 0; I != Suite.size(); ++I) {
    Program P;
    P.Spec = &Suite[I];
    P.Inputs = makeInputWindow(Suite[I], A.Seed, I, Suite[I].DefaultRuns);
    CompilationResult C = compileMiniC(P.Spec->Source, P.Spec->Name);
    if (!C.Ok)
      throw std::runtime_error(P.Spec->Name + " does not compile: " +
                               C.Errors);
    for (const RunInput &In : P.Inputs) {
      RunOptions Run = O.Run;
      Run.Input = In.Input;
      Run.Input2 = In.Input2;
      ExecResult E = runProgramWith(ReferenceEngine, C.M, Run);
      if (!E.ok())
        throw std::runtime_error(P.Spec->Name +
                                 ": reference run failed: " + E.TrapMessage);
      P.Reference.push_back(std::move(E.Output));
    }
    Programs.push_back(std::move(P));
  }
  const Program &Warm = Programs.front();
  PipelineResult R = runPipeline(Warm.Spec->Source, Warm.Spec->Name,
                                 Warm.Inputs, O);
  if (std::string Why = checkOutputs(R, Warm.Reference); !Why.empty())
    throw std::runtime_error("warm-up op " + Warm.Spec->Name + ": " + Why);
  return Programs;
}

void fillDynamicMetrics(PhaseMetrics &Metrics, const Module &M,
                        const ProfileData &Profile) {
  Metrics.StaticSize = M.size();
  Metrics.AvgInstrs = Profile.getAvgInstrs();
  Metrics.AvgControlTransfers = Profile.getAvgControlTransfers();
  Metrics.AvgCalls = Profile.getAvgDynamicCalls();
  Metrics.AvgExternalCalls = Profile.getAvgExternalCalls();
  Metrics.AvgPointerCalls = Profile.getAvgPointerCalls();
}

void fillClassMetrics(PhaseMetrics &Metrics, const Classification &Classes) {
  Metrics.DynExternal = Classes.sumDynamic(SiteClass::External);
  Metrics.DynPointer = Classes.sumDynamic(SiteClass::Pointer);
  Metrics.DynUnsafe = Classes.sumDynamic(SiteClass::Unsafe);
  Metrics.DynSafe = Classes.sumDynamic(SiteClass::Safe);
}

/// Checks the module between stages, as runPipeline does.
bool verifyTraced(Tracer &T, const Module &M, PipelineResult &R,
                  const char *Stage) {
  auto S = T.span("ir.verifyModuleText");
  if (std::string V = verifyModuleText(M); !V.empty()) {
    R.Failure = {M.Name, Stage, "diagnostic", V, 1};
    return false;
  }
  return true;
}

/// runPipeline's experiment composed from the layers' public entry points,
/// in runPipeline's order, with a span around every call. Options the
/// suite workloads leave at their defaults (cache, saved profile, faults,
/// retries, decision trace) are not composed.
PipelineResult runTraced(const Program &P, const PipelineOptions &O,
                         Tracer &T, uint64_t OpId) {
  PipelineResult R;
  auto Root = T.span("driver.op", OpId);
  CompilationResult C;
  {
    auto S = T.span("frontend.compileMiniC");
    C = compileMiniC(P.Spec->Source, P.Spec->Name);
  }
  if (!C.Ok) {
    R.Failure = {P.Spec->Name, "compile", "diagnostic", C.Errors, 1};
    return R;
  }
  Module M = std::move(C.M);
  if (!verifyTraced(T, M, R, "verify"))
    return R;

  if (O.RunPreOpt) {
    for (Function &F : M.Funcs) {
      if (F.IsExternal)
        continue;
      auto S = T.span("opt.runOptimizationPipeline");
      runOptimizationPipeline(F, O.PreOpt, &R.Stats.PreOpt);
    }
    if (!verifyTraced(T, M, R, "pre-opt"))
      return R;
  }

  ProfileResult Pre;
  {
    auto S = T.span("profile.profileProgram:pre");
    Pre = profileProgram(M, P.Inputs, O.Run, O.Engine, O.Instrument);
  }
  if (!Pre.allRunsOk()) {
    R.Failure = {P.Spec->Name, "profile", "trap", Pre.Failures[0], 1};
    return R;
  }
  R.ProfileBefore = std::move(Pre.Data);
  R.OutputsBefore = std::move(Pre.Outputs);
  fillDynamicMetrics(R.Before, M, R.ProfileBefore);

  {
    auto S = T.span("core.runInlineExpansion");
    R.Inline = runInlineExpansion(M, R.ProfileBefore, O.Inline);
  }
  fillClassMetrics(R.Before, R.Inline.Classes);
  if (!verifyTraced(T, M, R, "inline"))
    return R;

  if (O.Analyze) {
    {
      auto S = T.span("analysis.analyzeModule");
      R.Analysis = analyzeModule(M, O.Analysis);
    }
    {
      auto S = T.span("analysis.analyzeInlineInvariants");
      analyzeInlineInvariants(M, R.Inline, R.ProfileBefore, O.Analysis,
                              R.Analysis);
    }
    if (R.Analysis.hasErrors()) {
      R.Failure = {P.Spec->Name, "analyze", "finding", "", 1};
      return R;
    }
  }

  ProfileResult Post;
  {
    auto S = T.span("profile.profileProgram:post");
    Post = profileProgram(M, P.Inputs, O.Run, O.Engine, O.Instrument);
  }
  if (!Post.allRunsOk()) {
    R.Failure = {P.Spec->Name, "re-profile", "trap", Post.Failures[0], 1};
    return R;
  }
  fillDynamicMetrics(R.After, M, Post.Data);
  R.OutputsAfter = std::move(Post.Outputs);
  {
    auto S = T.span("callgraph.classifyCallSites");
    CallGraphOptions GraphOptions;
    GraphOptions.AssumeExternalsCallBack = O.Inline.AssumeExternalsCallBack;
    CallGraph G = buildCallGraph(M, &Post.Data, GraphOptions);
    fillClassMetrics(R.After, classifyCallSites(M, G, Post.Data, O.Inline));
  }
  R.FinalModule = std::move(M);
  R.Ok = true;
  return R;
}

/// Empty when the traced op measured the same work as runPipeline did.
std::string compareTraced(const PipelineResult &Traced,
                          const PipelineResult &Plain) {
  if (Traced.Ok != Plain.Ok)
    return "completion differs";
  if (Traced.OutputsBefore != Plain.OutputsBefore ||
      Traced.OutputsAfter != Plain.OutputsAfter)
    return "outputs differ";
  if (!(Traced.Before == Plain.Before) || !(Traced.After == Plain.After))
    return "PhaseMetrics differ";
  if (Traced.Inline.getNumExpanded() != Plain.Inline.getNumExpanded())
    return "expansion counts differ";
  return "";
}

struct Pass {
  double Wall = 0.0;
  double Cpu = 0.0;
  double Sys = 0.0;
  std::vector<PipelineResult> Results;
  Quality Q;
};

/// Runs every program once, untraced or (with \p T) traced.
Pass runPass(const std::vector<Program> &Programs, const PipelineOptions &O,
             Tracer *T, uint64_t &NextOp, RunReport &Report) {
  Pass P;
  CpuTimes Cpu0 = CpuTimes::now();
  Stopwatch Wall;
  for (const Program &Prog : Programs) {
    PipelineResult R =
        T ? runTraced(Prog, O, *T, NextOp++)
          : runPipeline(Prog.Spec->Source, Prog.Spec->Name, Prog.Inputs, O);
    ++Report.Attempted;
    if (std::string Why = checkOutputs(R, Prog.Reference); !Why.empty()) {
      ++Report.Failed;
      Report.Errors.push_back(Prog.Spec->Name + ": " + Why);
    } else {
      P.Q.addProgram(R, Prog.Inputs.size());
    }
    P.Results.push_back(std::move(R));
  }
  P.Wall = Wall.seconds();
  CpuTimes Cpu1 = CpuTimes::now();
  P.Cpu = Cpu1.total() - Cpu0.total();
  P.Sys = Cpu1.Sys - Cpu0.Sys;
  return P;
}

} // namespace

RunReport perfbench::runSuiteWorkload(const Args &A, const PipelineOptions &O,
                                      ExecEngine ReferenceEngine) {
  RunReport Report;
  std::vector<double> SetupSeconds;
  std::vector<Program> Programs;
  for (unsigned I = 0; I != SuiteSetupRepeats; ++I) {
    Stopwatch Setup;
    Programs = setUp(A, O, ReferenceEngine);
    SetupSeconds.push_back(Setup.seconds());
  }
  const double OpsPerPass = static_cast<double>(Programs.size());

  // Whole passes until --seconds have passed; in the traced run, pairs of
  // an untraced and a traced pass.
  Tracer T;
  uint64_t NextOp = 0;
  std::vector<Pass> Plain, Traced;
  std::optional<Quality> First;
  Stopwatch Loop;
  for (;;) {
    Pass P = runPass(Programs, O, nullptr, NextOp, Report);
    if (A.Trace) {
      Pass TP = runPass(Programs, O, &T, NextOp, Report);
      for (size_t I = 0; I != TP.Results.size(); ++I)
        if (std::string Why = compareTraced(TP.Results[I], P.Results[I]);
            !Why.empty())
          Report.Errors.push_back("traced " + Programs[I].Spec->Name +
                                  " does not reproduce runPipeline: " + Why);
      TP.Results.clear();
      Traced.push_back(std::move(TP));
    }
    P.Results.clear();
    if (!First)
      First = P.Q;
    if (!(P.Q == *First))
      Report.Errors.push_back("deterministic figures drifted between passes (" +
                              First->digest() + " vs " + P.Q.digest() + ")");
    Plain.push_back(std::move(P));
    if (Loop.seconds() >= A.Seconds)
      break;
  }
  Report.Digest = First->digest();
  for (const Pass &TP : Traced)
    if (!(TP.Q == *First))
      Report.Errors.push_back("traced pass figures differ from runPipeline's");

  auto PassField = [](const std::vector<Pass> &Passes, double Pass::*F) {
    std::vector<double> V;
    for (const Pass &P : Passes)
      V.push_back(P.*F);
    return V;
  };

  if (!A.Trace) {
    // A suite's request is the whole experiment, so latency is that of a
    // pass. A percentile over single ops would be an order statistic of
    // the 12-program mix: it picks out one program, and that program's
    // seeded input window then sets the figure.
    double Cpu = 0.0;
    for (const Pass &P : Plain)
      Cpu += P.Cpu;
    const std::vector<double> PassWalls = PassField(Plain, &Pass::Wall);
    addEndToEndMetrics(Report, SetupSeconds, OpsPerPass, PassWalls,
                       PassWalls, Cpu, *First);
    return Report;
  }

  // Per-layer figures from the traced passes, per op.
  const double TracedOps = OpsPerPass * Traced.size();
  std::map<std::string, double> Self = T.selfTimeByName();
  std::map<std::string, double> LayerSelf;
  double OpWall = 0.0;
  double Compiles = 0.0;
  for (const auto &[Name, Seconds] : Self)
    LayerSelf[getLayerName(Name)] += Seconds;
  for (const Span &S : T.getSpans()) {
    if (S.Parent < 0)
      OpWall += S.seconds();
    if (S.Name == "frontend.compileMiniC")
      ++Compiles;
  }
  double ProfileSeconds = Self["profile.profileProgram:pre"] +
                          Self["profile.profileProgram:post"];
  double IlPerS = First->IlExecuted * Traced.size() / ProfileSeconds;
  double Sys = 0.0;
  for (const Pass &TP : Traced)
    Sys += TP.Sys;

  Report.add("frontend.compile_s", Self["frontend.compileMiniC"] / TracedOps,
             "s");
  Report.add("opt.preopt_s", Self["opt.runOptimizationPipeline"] / TracedOps,
             "s");
  // The suite workloads attach no function-definition cache.
  Report.add("driver.cache_hit_ratio", 0.0, "ratio");
  Report.add("core.inline_s", Self["core.runInlineExpansion"] / TracedOps,
             "s");
  Report.add("core.expansions", First->Expansions, "count");
  Report.add("analysis.findings", First->Findings, "count");
  Report.add("profile.profile_s", Self["profile.profileProgram:pre"] / TracedOps,
             "s");
  Report.add("profile.reprofile_s",
             Self["profile.profileProgram:post"] / TracedOps, "s");
  Report.add("profile.il_executed", First->IlExecuted, "count");
  Report.add("profile.il_per_s", IlPerS, "1/s");
  Report.add("interp.sys_s_per_op", Sys / TracedOps, "s");
  Report.add("vm.il_per_s", O.Engine == ExecEngine::Vm ? IlPerS : 0.0, "1/s");
  Report.add("ir.size_after_preopt", First->SizeAfterPreopt, "count");
  Report.add("ir.size_after_inline", First->SizeAfterInline, "count");
  Report.add("driver.op_s", OpWall / TracedOps, "s");
  Report.add("driver.other_s", LayerSelf["driver"] / TracedOps, "s");
  Report.add("driver.touched_units", Compiles / TracedOps, "count");
  for (const char *Layer : LayerNames)
    Report.add(std::string(Layer) + ".share", LayerSelf[Layer] / OpWall,
               "ratio");
  Report.add("trace.overhead_ratio",
             median(PassField(Traced, &Pass::Wall)) /
                 median(PassField(Plain, &Pass::Wall)),
             "ratio");

  if (!A.TraceOut.empty()) {
    std::string Error;
    if (!T.writeChromeTrace(A.TraceOut, &Error))
      Report.Errors.push_back(Error);
  }
  return Report;
}

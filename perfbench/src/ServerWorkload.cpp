//===- perfbench/src/ServerWorkload.cpp - server_edit ---------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server_edit workload: interactive traffic against an in-memory
/// CompileServer holding the suite (one unit and one single-unit program
/// per benchmark, one profiled run each, on the generator's first input as
/// in perf_compile_server), in the optimizing configuration.
/// Cold-loading the suite is set-up. Each op is one output-preserving
/// single-unit edit: replaceUnit + recompile(program). Edits come in
/// rounds; a round edits every program once, in a seeded order.
///
/// The seed picks the edit sequence, not the inputs: with a single profiled
/// run, the input would decide which sites get inlined, and the seed would
/// change the workload rather than sample it. A program's edit kind (a
/// trailing comment, or an unused helper function) is fixed by the seed;
/// only a round number inside the edit changes between rounds. So the
/// compiled work of a program's edits, and each program's last result, do
/// not depend on how many rounds ran.
///
/// The server reports its per-phase seconds in each result's
/// PipelineStats; the traced run reads them there. It does not report its
/// frontend time, so the traced run compiles each edited unit once more,
/// outside the server, in a frontend.compileMiniC span.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Trace.h"

#include "driver/Compilation.h"
#include "driver/CompileServer.h"
#include "suite/Suite.h"
#include "support/Rng.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

using namespace impact;
using namespace perfbench;

namespace {

struct ServerProgram {
  const BenchmarkSpec *Spec = nullptr;
  std::vector<RunInput> Inputs;
  /// The walker's outputs on the un-inlined, unedited module.
  std::vector<std::string> Reference;
  /// 0: trailing comment; 1: unused helper function.
  unsigned EditKind = 0;
};

struct Session {
  std::vector<ServerProgram> Programs;
  std::unique_ptr<CompileServer> Server;
};

ServerOptions makeServerOptions() {
  ServerOptions S;
  S.Jobs = 1;
  PipelineOptions &P = S.Pipeline;
  std::string Error;
  if (!parseEngine("vm", P.Engine, &Error) ||
      !parseInstrumentMode("full", P.Instrument, &Error) ||
      !parseOptPasses("all", P.PreOpt, &Error) ||
      !parseOptPasses("all", P.Inline.PostOpt, &Error))
    throw std::runtime_error(Error);
  P.Inline.PostInlineOptimize = true;
  P.Analyze = true;
  return S;
}

std::string editSource(const ServerProgram &P, uint64_t Round) {
  // Round + 1 keeps the helper's constant nonzero, so no round's helper
  // folds to a smaller body than another's (x + 0 would).
  std::string R = std::to_string(Round + 1);
  if (P.EditKind == 0)
    return P.Spec->Source + "\n// edit " + R + "\n";
  return P.Spec->Source + "\nint perfbench_edit_pad(int x) { return x + " +
         R + "; }\n";
}

/// Inputs, reference outputs, and the server's cold compile of the suite.
/// Throws on any failure.
Session setUp(const Args &A) {
  Session S;
  const std::vector<BenchmarkSpec> &Suite = getBenchmarkSuite();
  Rng Kinds(A.Seed);
  for (unsigned I = 0; I != Suite.size(); ++I) {
    ServerProgram P;
    P.Spec = &Suite[I];
    P.Inputs = makeBenchmarkInputs(Suite[I], 1);
    P.EditKind = static_cast<unsigned>(Kinds.nextBelow(2));
    CompilationResult C = compileMiniC(P.Spec->Source, P.Spec->Name);
    if (!C.Ok)
      throw std::runtime_error(P.Spec->Name + " does not compile: " +
                               C.Errors);
    for (const RunInput &In : P.Inputs) {
      RunOptions Run;
      Run.Input = In.Input;
      Run.Input2 = In.Input2;
      ExecResult E = runProgramWith(ExecEngine::Walker, C.M, Run);
      if (!E.ok())
        throw std::runtime_error(P.Spec->Name +
                                 ": reference run failed: " + E.TrapMessage);
      P.Reference.push_back(std::move(E.Output));
    }
    S.Programs.push_back(std::move(P));
  }

  S.Server = std::make_unique<CompileServer>(makeServerOptions());
  for (const ServerProgram &P : S.Programs) {
    std::string Error;
    if (!S.Server->addUnit(P.Spec->Name, P.Spec->Source, &Error) ||
        !S.Server->defineProgram(P.Spec->Name, {P.Spec->Name}, P.Inputs,
                                 &Error))
      throw std::runtime_error(Error);
  }
  RecompileStats Cold = S.Server->recompile();
  if (Cold.FailedPrograms != 0 || Cold.RecompiledPrograms != Suite.size())
    throw std::runtime_error("cold compile of the suite failed");
  for (const ServerProgram &P : S.Programs) {
    const PipelineResult *R = S.Server->getResult(P.Spec->Name);
    if (std::string Why = checkOutputs(*R, P.Reference); !Why.empty())
      throw std::runtime_error("cold compile of " + P.Spec->Name + ": " +
                               Why);
  }
  return S;
}

/// What one edit request returned.
struct EditOutcome {
  bool Replaced = false;
  std::string Error;
  RecompileStats Stats;
};

EditOutcome applyEdit(CompileServer &Server, const std::string &Name,
                      std::string Source) {
  EditOutcome E;
  E.Replaced = Server.replaceUnit(Name, std::move(Source), &E.Error);
  if (E.Replaced)
    E.Stats = Server.recompile(Name, &E.Error);
  return E;
}

/// applyEdit with spans. The recompile span carries the figures the
/// server reports for the rebuilt program, so the per-layer table is built
/// from the trace record alone.
EditOutcome applyTracedEdit(Tracer &T, uint64_t Op, CompileServer &Server,
                            const std::string &Name, std::string Source,
                            size_t Runs) {
  auto Root = T.span("driver.edit", Op);
  {
    auto Probe = T.span("frontend.compileMiniC");
    compileMiniC(Source, Name, /*RequireMain=*/false);
  }
  EditOutcome E;
  {
    auto S = T.span("driver.replaceUnit");
    E.Replaced = Server.replaceUnit(Name, std::move(Source), &E.Error);
  }
  if (!E.Replaced)
    return E;
  auto S = T.span("driver.recompile");
  E.Stats = Server.recompile(Name, &E.Error);
  if (const PipelineResult *R = Server.getResult(Name)) {
    const PipelineStats &PS = R->Stats;
    CacheCounts Cache = getCacheCounts(PS);
    S.get().Args = {
        {"preopt_s", PS.PreOptSeconds},
        {"profile_s", PS.ProfileSeconds},
        {"inline_s", PS.InlineSeconds},
        {"analyze_s", PS.AnalyzeSeconds},
        {"reprofile_s", PS.ReProfileSeconds},
        {"cache_hits", static_cast<double>(Cache.Hits)},
        {"cache_lookups", static_cast<double>(Cache.Lookups)},
        {"il_executed",
         std::round((R->Before.AvgInstrs + R->After.AvgInstrs) * Runs)},
        {"touched_units", static_cast<double>(E.Stats.TouchedUnits)},
    };
  }
  return E;
}

struct Round {
  double Wall = 0.0;
  double Cpu = 0.0;
  double Sys = 0.0;
  std::vector<double> EditSeconds;
  Quality Q;
};

/// Edits every program once, in an order drawn from the seed and the
/// round; traced when \p T is set.
Round runRound(Session &S, uint64_t Seed, uint64_t RoundIndex, Tracer *T,
               RunReport &Report) {
  std::vector<size_t> Order(S.Programs.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  Rng Shuffle(Seed ^ (RoundIndex * 0x9E3779B97F4A7C15ull));
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Shuffle.nextBelow(I)]);

  Round R;
  CpuTimes Cpu0 = CpuTimes::now();
  Stopwatch Wall;
  for (size_t Index : Order) {
    const ServerProgram &P = S.Programs[Index];
    const std::string &Name = P.Spec->Name;
    uint64_t Op = Report.Attempted++;
    Stopwatch Edit;
    EditOutcome E =
        T ? applyTracedEdit(*T, Op, *S.Server, Name, editSource(P, RoundIndex),
                            P.Inputs.size())
          : applyEdit(*S.Server, Name, editSource(P, RoundIndex));
    R.EditSeconds.push_back(Edit.seconds());

    std::string Why;
    if (!E.Replaced || !E.Error.empty())
      Why = "request failed: " + E.Error;
    else if (E.Stats.FailedPrograms != 0 || E.Stats.RecompiledPrograms != 1)
      Why = "recompile quarantined the program";
    else if (E.Stats.TouchedUnits != 1)
      Why = "recompile touched " + std::to_string(E.Stats.TouchedUnits) +
            " units, expected 1";
    else
      Why = checkOutputs(*S.Server->getResult(Name), P.Reference);
    if (!Why.empty()) {
      ++Report.Failed;
      Report.Errors.push_back(Name + " edit " + std::to_string(RoundIndex) +
                              ": " + Why);
    }
  }
  R.Wall = Wall.seconds();
  CpuTimes Cpu1 = CpuTimes::now();
  R.Cpu = Cpu1.total() - Cpu0.total();
  R.Sys = Cpu1.Sys - Cpu0.Sys;
  for (const ServerProgram &P : S.Programs)
    R.Q.addProgram(*S.Server->getResult(P.Spec->Name), P.Inputs.size());
  return R;
}

} // namespace

RunReport perfbench::runServerWorkload(const Args &A) {
  RunReport Report;
  std::vector<double> SetupSeconds;
  Session S;
  for (unsigned I = 0; I != ServerSetupRepeats; ++I) {
    Stopwatch Setup;
    S = setUp(A);
    SetupSeconds.push_back(Setup.seconds());
  }
  const double EditsPerRound = static_cast<double>(S.Programs.size());

  // Whole rounds until --seconds have passed, and at least MinRounds so
  // the p90 edit latency has well over ten samples beyond it.
  constexpr unsigned MinRounds = 10;
  Tracer T;
  std::vector<Round> Plain, Traced;
  uint64_t RoundIndex = 0;
  Stopwatch Loop;
  for (;;) {
    Plain.push_back(runRound(S, A.Seed, RoundIndex++, nullptr, Report));
    if (A.Trace)
      Traced.push_back(runRound(S, A.Seed, RoundIndex++, &T, Report));
    if (Plain.size() >= MinRounds && Loop.seconds() >= A.Seconds)
      break;
  }
  const Quality &First = Plain.front().Q;
  Report.Digest = First.digest();
  for (const std::vector<Round> *Rounds : {&Plain, &Traced})
    for (const Round &R : *Rounds)
      if (!(R.Q == First)) {
        Report.Errors.push_back("deterministic figures drifted between "
                                "rounds (" + First.digest() + " vs " +
                                R.Q.digest() + ")");
        break;
      }

  auto RoundField = [](const std::vector<Round> &Rounds, double Round::*F) {
    std::vector<double> V;
    for (const Round &R : Rounds)
      V.push_back(R.*F);
    return V;
  };
  auto Sum = [](const std::vector<double> &V) {
    double Total = 0.0;
    for (double X : V)
      Total += X;
    return Total;
  };

  if (!A.Trace) {
    std::vector<double> EditSeconds;
    for (const Round &R : Plain)
      EditSeconds.insert(EditSeconds.end(), R.EditSeconds.begin(),
                         R.EditSeconds.end());
    addEndToEndMetrics(Report, SetupSeconds, EditsPerRound,
                       RoundField(Plain, &Round::Wall), EditSeconds,
                       Sum(RoundField(Plain, &Round::Cpu)), First);
    return Report;
  }

  // Per-layer figures from the traced rounds, per edit.
  std::map<std::string, double> Reported;
  double Frontend = 0.0, ReplaceUnit = 0.0, Recompile = 0.0;
  for (const Span &Sp : T.getSpans()) {
    if (Sp.Name == "frontend.compileMiniC")
      Frontend += Sp.seconds();
    else if (Sp.Name == "driver.replaceUnit")
      ReplaceUnit += Sp.seconds();
    else if (Sp.Name == "driver.recompile")
      Recompile += Sp.seconds();
    for (const auto &[Key, Value] : Sp.Args)
      Reported[Key] += Value;
  }
  const double Edits = EditsPerRound * Traced.size();
  const double ProfileSeconds = Reported["profile_s"] + Reported["reprofile_s"];
  const double PhaseSum = Reported["preopt_s"] + ProfileSeconds +
                          Reported["inline_s"] + Reported["analyze_s"];
  const double OpWall = ReplaceUnit + Recompile;
  const double Other = Recompile - PhaseSum;
  const double IlPerS = Reported["il_executed"] / ProfileSeconds;

  Report.add("frontend.compile_s", Frontend / Edits, "s");
  Report.add("opt.preopt_s", Reported["preopt_s"] / Edits, "s");
  Report.add("driver.cache_hit_ratio",
             Reported["cache_lookups"] == 0.0
                 ? 0.0
                 : Reported["cache_hits"] / Reported["cache_lookups"],
             "ratio");
  Report.add("core.inline_s", Reported["inline_s"] / Edits, "s");
  Report.add("core.expansions", First.Expansions, "count");
  Report.add("analysis.findings", First.Findings, "count");
  Report.add("profile.profile_s", Reported["profile_s"] / Edits, "s");
  Report.add("profile.reprofile_s", Reported["reprofile_s"] / Edits, "s");
  Report.add("profile.il_executed", First.IlExecuted, "count");
  Report.add("profile.il_per_s", IlPerS, "1/s");
  Report.add("interp.sys_s_per_op", Sum(RoundField(Traced, &Round::Sys)) / Edits,
             "s");
  Report.add("vm.il_per_s", IlPerS, "1/s");
  Report.add("ir.size_after_preopt", First.SizeAfterPreopt, "count");
  Report.add("ir.size_after_inline", First.SizeAfterInline, "count");
  Report.add("driver.op_s", OpWall / Edits, "s");
  Report.add("driver.other_s", Other / Edits, "s");
  Report.add("driver.touched_units", Reported["touched_units"] / Edits,
             "count");
  // The server's verifier, call-graph and frontend work is not separable
  // from outside it: it is all in driver.other_s. The frontend share is
  // the probe compile's, taken out of the driver layer's.
  const std::map<std::string, double> Shares = {
      {"frontend", Frontend},
      {"ir", 0.0},
      {"opt", Reported["preopt_s"]},
      {"profile", ProfileSeconds},
      {"core", Reported["inline_s"]},
      {"analysis", Reported["analyze_s"]},
      {"callgraph", 0.0},
      {"driver", std::max(0.0, OpWall - PhaseSum - Frontend)}};
  for (const char *Layer : LayerNames)
    Report.add(std::string(Layer) + ".share", Shares.at(Layer) / OpWall,
               "ratio");
  Report.add("trace.overhead_ratio",
             median(RoundField(Traced, &Round::Wall)) /
                 median(RoundField(Plain, &Round::Wall)),
             "ratio");

  if (!A.TraceOut.empty()) {
    std::string Error;
    if (!T.writeChromeTrace(A.TraceOut, &Error))
      Report.Errors.push_back(Error);
  }
  return Report;
}

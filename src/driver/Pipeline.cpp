//===- driver/Pipeline.cpp -----------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "callgraph/CallGraphBuilder.h"
#include "driver/DecisionTrace.h"
#include "driver/FunctionCache.h"
#include "ir/IrVerifier.h"
#include "support/FaultInjection.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <new>

using namespace impact;

std::string UnitFailure::render() const {
  std::string Out = "unit '" + Unit + "' failed at " + Stage + " (" +
                    Reason + ") after " + std::to_string(Attempts) +
                    " attempt(s)";
  if (!Detail.empty())
    Out += ": " + Detail;
  return Out;
}

namespace {

/// Fills the phase metrics that come straight from a profile.
void fillDynamicMetrics(PhaseMetrics &Metrics, const Module &M,
                        const ProfileData &Profile) {
  Metrics.StaticSize = M.size();
  Metrics.AvgInstrs = Profile.getAvgInstrs();
  Metrics.AvgControlTransfers = Profile.getAvgControlTransfers();
  Metrics.AvgCalls = Profile.getAvgDynamicCalls();
  Metrics.AvgExternalCalls = Profile.getAvgExternalCalls();
  Metrics.AvgPointerCalls = Profile.getAvgPointerCalls();
}

/// Fills the per-class dynamic call split from a classification.
void fillClassMetrics(PhaseMetrics &Metrics, const Classification &Classes) {
  Metrics.DynExternal = Classes.sumDynamic(SiteClass::External);
  Metrics.DynPointer = Classes.sumDynamic(SiteClass::Pointer);
  Metrics.DynUnsafe = Classes.sumDynamic(SiteClass::Unsafe);
  Metrics.DynSafe = Classes.sumDynamic(SiteClass::Safe);
}

/// Marks \p Result failed with both the legacy Error string and the
/// structured quarantine record.
void failUnit(PipelineResult &Result, std::string Unit, std::string Stage,
              std::string Reason, std::string Detail,
              std::string LegacyError) {
  Result.Ok = false;
  Result.Error = std::move(LegacyError);
  Result.Failure.Unit = std::move(Unit);
  Result.Failure.Stage = std::move(Stage);
  Result.Failure.Reason = std::move(Reason);
  Result.Failure.Detail = std::move(Detail);
}

/// Maps an interpreter failure status onto a UnitFailure reason class.
const char *profileFailureReason(const ProfileResult &P) {
  if (!P.RunFailures.empty() &&
      P.RunFailures.front().Status == ExecResult::Status::StepLimitExceeded)
    return "step-limit";
  return "trap";
}

/// Pre-inline optimization, optionally memoized through the shared
/// function-definition cache. The cached body is exactly what re-running
/// the (deterministic) passes would produce, so the transformed module is
/// identical either way; only the wall time and the hit/miss counters
/// differ.
///
/// Fault sites: "pass" before each function's pass pipeline,
/// "cache-lookup"/"cache-insert" around the cache calls. A fault firing
/// here unwinds before the insert, so a failing unit can never leave a
/// partially optimized (poisoned) body behind for other units to splice.
/// Returns false (diagnostic-kind fault) after filling \p Result.
bool runPreOpt(Module &M, const PipelineOptions &Options,
               PipelineResult &Result, FaultSession &Faults) {
  PipelineStats &Stats = Result.Stats;
  for (Function &F : M.Funcs) {
    if (F.IsExternal)
      continue;
    if (Faults.reach("pass") == FaultKind::Diagnostic) {
      failUnit(Result, M.Name, "pre-opt", "diagnostic",
               "injected diagnostic at pass (function '" + F.Name + "')",
               "pre-opt failed: injected diagnostic at pass");
      return false;
    }
    if (Options.DefCache) {
      std::string Key = FunctionDefinitionCache::makeKey(F, Options.PreOpt);
      if (Faults.reach("cache-lookup") == FaultKind::Diagnostic) {
        failUnit(Result, M.Name, "pre-opt", "diagnostic",
                 "injected diagnostic at cache-lookup",
                 "pre-opt failed: injected diagnostic at cache-lookup");
        return false;
      }
      if (Options.DefCache->lookup(Key, F)) {
        ++Stats.CacheHits;
        continue;
      }
      runOptimizationPipeline(F, Options.PreOpt, &Stats.PreOpt);
      if (Faults.reach("cache-insert") == FaultKind::Diagnostic) {
        failUnit(Result, M.Name, "pre-opt", "diagnostic",
                 "injected diagnostic at cache-insert",
                 "pre-opt failed: injected diagnostic at cache-insert");
        return false;
      }
      Options.DefCache->insert(Key, F);
      ++Stats.CacheMisses;
    } else {
      runOptimizationPipeline(F, Options.PreOpt, &Stats.PreOpt);
    }
  }
  return true;
}

/// One attempt at the module pipeline (steps 1-4). \p Stage tracks the
/// current boundary so the exception-containment wrapper can attribute a
/// throw to the right stage after unwinding.
PipelineResult runModuleAttempt(Module M,
                                const std::vector<RunInput> &Inputs,
                                const PipelineOptions &Options,
                                FaultSession &Faults, const char *&Stage) {
  PipelineResult Result;
  std::string Unit = M.Name;

  Stage = "verify";
  if (std::string V = verifyModuleText(M); !V.empty()) {
    failUnit(Result, Unit, "verify", "diagnostic", V,
             "module failed verification before the pipeline:\n" + V);
    return Result;
  }

  // 1. Pre-inline classic optimization (§4.4: constant folding and jump
  // optimization run before the inline expansion procedure).
  if (Options.RunPreOpt) {
    Stage = "pre-opt";
    Stopwatch PreOptTimer;
    bool PreOptOk = runPreOpt(M, Options, Result, Faults);
    Result.Stats.PreOptSeconds = PreOptTimer.seconds();
    if (!PreOptOk)
      return Result;
    if (std::string V = verifyModuleText(M); !V.empty()) {
      failUnit(Result, Unit, "pre-opt", "diagnostic", V,
               "module failed verification after pre-opt:\n" + V);
      return Result;
    }
  }

  // 2. Profile on representative inputs — unless a saved profile drives
  // this compile (PipelineOptions::ProfileIn), in which case the
  // interpreter never runs and OutputsBefore stays empty. A measured
  // profile has exactly one slot per call site and per function, so a
  // profile of another module shows up as a size mismatch.
  if (Options.ProfileIn) {
    const ProfileData &In = *Options.ProfileIn;
    if (In.getNumSites() != M.NextSiteId ||
        In.getNumFuncs() != M.Funcs.size()) {
      std::string Detail =
          "saved profile has " + std::to_string(In.getNumSites()) +
          " sites and " + std::to_string(In.getNumFuncs()) +
          " functions; the module has " + std::to_string(M.NextSiteId) +
          " sites and " + std::to_string(M.Funcs.size()) + " functions";
      failUnit(Result, Unit, "profile", "diagnostic", Detail,
               "saved profile does not match the module: " + Detail);
      return Result;
    }
    Result.ProfileBefore = In;
  } else {
    Stage = "profile";
    RunOptions Run = Options.Run;
    if (std::optional<FaultKind> K = Faults.reach("profile")) {
      if (*K == FaultKind::StepLimit) {
        Run.StepLimit = 1; // exhausts on the first instruction
      } else {
        failUnit(Result, Unit, "profile", "diagnostic",
                 "injected diagnostic at profile",
                 "pre-inline profiling failed: injected diagnostic");
        return Result;
      }
    }
    Stopwatch ProfileTimer;
    ProfileResult PreProfile =
        profileProgram(M, Inputs, Run, Options.Engine, Options.Instrument);
    Result.Stats.ProfileSeconds = ProfileTimer.seconds();
    if (!PreProfile.allRunsOk()) {
      failUnit(Result, Unit, "profile", profileFailureReason(PreProfile),
               PreProfile.Failures[0],
               "pre-inline profiling failed: " + PreProfile.Failures[0]);
      return Result;
    }
    Result.ProfileBefore = std::move(PreProfile.Data);
    Result.OutputsBefore = std::move(PreProfile.Outputs);
  }
  fillDynamicMetrics(Result.Before, M, Result.ProfileBefore);

  // 3. Recompile with profile-guided inline expansion.
  Stage = "inline";
  if (Faults.reach("expand") == FaultKind::Diagnostic) {
    failUnit(Result, Unit, "inline", "diagnostic",
             "injected diagnostic at expand",
             "inline expansion failed: injected diagnostic");
    return Result;
  }
  Stopwatch InlineTimer;
  Result.Inline = runInlineExpansion(M, Result.ProfileBefore, Options.Inline);
  Result.Stats.InlineSeconds = InlineTimer.seconds();
  fillClassMetrics(Result.Before, Result.Inline.Classes);
  if (std::string V = verifyModuleText(M); !V.empty()) {
    failUnit(Result, Unit, "inline", "diagnostic", V,
             "module failed verification after inline expansion:\n" + V);
    return Result;
  }
  if (Options.EmitDecisionTrace)
    Result.DecisionTrace = renderDecisionTraceTable(Result.Inline.Plan, M);

  // 3b. Optional static audit of the inlined module (impact-lint). Error
  // findings mean the inliner broke one of its own invariants; the unit
  // is quarantined before any re-profiling effort is spent on it.
  if (Options.Analyze) {
    Stage = "analyze";
    Stopwatch AnalyzeTimer;
    Result.Analysis = analyzeModule(M, Options.Analysis);
    analyzeInlineInvariants(M, Result.Inline, Result.ProfileBefore,
                            Options.Analysis, Result.Analysis);
    Result.Stats.AnalyzeSeconds = AnalyzeTimer.seconds();
    if (Result.Analysis.hasErrors()) {
      std::string Errors;
      for (const Finding &F : Result.Analysis.Findings)
        if (F.Sev == Severity::Error)
          Errors += (Errors.empty() ? "" : "\n") + F.render();
      failUnit(Result, Unit, "analyze", "finding", Errors,
               "static analysis found inliner-invariant violations:\n" +
                   Errors);
      return Result;
    }
  }

  // 4. Measure by re-profiling on the same inputs.
  Stage = "re-profile";
  RunOptions ReRun = Options.Run;
  if (std::optional<FaultKind> K = Faults.reach("reprofile")) {
    if (*K == FaultKind::StepLimit) {
      ReRun.StepLimit = 1;
    } else {
      failUnit(Result, Unit, "re-profile", "diagnostic",
               "injected diagnostic at reprofile",
               "post-inline profiling failed: injected diagnostic");
      return Result;
    }
  }
  Stopwatch ReProfileTimer;
  ProfileResult PostProfile =
      profileProgram(M, Inputs, ReRun, Options.Engine, Options.Instrument);
  Result.Stats.ReProfileSeconds = ReProfileTimer.seconds();
  if (!PostProfile.allRunsOk()) {
    failUnit(Result, Unit, "re-profile", profileFailureReason(PostProfile),
             PostProfile.Failures[0],
             "post-inline profiling failed: " + PostProfile.Failures[0]);
    return Result;
  }
  fillDynamicMetrics(Result.After, M, PostProfile.Data);
  Result.OutputsAfter = std::move(PostProfile.Outputs);

  // Post-inline dynamic classification (the §4.4 external/pointer/unsafe/
  // safe split of the *remaining* calls).
  {
    CallGraphOptions GraphOptions;
    GraphOptions.AssumeExternalsCallBack =
        Options.Inline.AssumeExternalsCallBack;
    CallGraph G = buildCallGraph(M, &PostProfile.Data, GraphOptions);
    Classification PostClasses =
        classifyCallSites(M, G, PostProfile.Data, Options.Inline);
    fillClassMetrics(Result.After, PostClasses);
  }

  Result.FinalModule = std::move(M);
  Result.Ok = true;
  return Result;
}

/// Containment wrapper: converts anything the attempt throws — injected
/// faults, simulated allocation failures, and real defects alike — into a
/// structured UnitFailure on a failed result, so a ThreadPool task
/// running this unit can never terminate the batch.
PipelineResult runGuardedModuleAttempt(Module M,
                                       const std::vector<RunInput> &Inputs,
                                       const PipelineOptions &Options,
                                       FaultSession &Faults) {
  std::string Unit = M.Name;
  const char *Stage = "verify";
  try {
    return runModuleAttempt(std::move(M), Inputs, Options, Faults, Stage);
  } catch (const FaultInjectedError &E) {
    PipelineResult Result;
    failUnit(Result, Unit, Stage, "fault-injected", E.what(),
             std::string(Stage) + " failed: " + E.what());
    return Result;
  } catch (const std::bad_alloc &) {
    PipelineResult Result;
    failUnit(Result, Unit, Stage, "oom", "allocation failure",
             std::string(Stage) + " failed: allocation failure");
    return Result;
  } catch (const std::exception &E) {
    PipelineResult Result;
    failUnit(Result, Unit, Stage, "exception", E.what(),
             std::string(Stage) + " failed: " + E.what());
    return Result;
  }
}

/// Shared retry loop. \p Attempt runs one guarded attempt with a fresh
/// FaultSession; transient faults (their MaxAttempts exhausted) stop
/// firing on later attempts, so a retried unit converges to the result a
/// fault-free run would have produced.
template <typename AttemptFn>
PipelineResult runWithRetries(const std::string &Name,
                              const PipelineOptions &Options,
                              AttemptFn &&Attempt) {
  unsigned MaxAttempts = 1 + Options.RetryAttempts;
  for (unsigned A = 1;; ++A) {
    FaultSession Faults(Options.Faults, Name, A);
    PipelineResult Result = Attempt(Faults, A == MaxAttempts);
    if (Options.Faults)
      Result.FaultSiteHits = Faults.getSiteHits();
    Result.Failure.Attempts = A;
    Result.Stats.Retries = A - 1;
    Result.Stats.UnitsFailed = Result.Ok ? 0 : 1;
    if (Result.Ok || A == MaxAttempts)
      return Result;
  }
}

} // namespace

PipelineResult impact::runPipeline(Module M,
                                   const std::vector<RunInput> &Inputs,
                                   const PipelineOptions &Options) {
  std::string Name = M.Name;
  return runWithRetries(Name, Options, [&](FaultSession &Faults,
                                           bool LastAttempt) {
    // Earlier attempts work on a copy so a retry restarts from the
    // caller's module; the last one may consume it.
    if (LastAttempt)
      return runGuardedModuleAttempt(std::move(M), Inputs, Options, Faults);
    Module Copy = M;
    return runGuardedModuleAttempt(std::move(Copy), Inputs, Options, Faults);
  });
}

PipelineResult impact::runPipeline(std::string_view Source, std::string Name,
                                   const std::vector<RunInput> &Inputs,
                                   const PipelineOptions &Options) {
  return runWithRetries(Name, Options, [&](FaultSession &Faults,
                                           bool /*LastAttempt*/) {
    Stopwatch CompileTimer;
    PipelineResult Result;
    try {
      CompilationResult C =
          compileMiniC(Source, Name, /*RequireMain=*/true, &Faults);
      double CompileSeconds = CompileTimer.seconds();
      if (!C.Ok) {
        failUnit(Result, Name, "compile", "diagnostic", C.Errors,
                 "compilation failed:\n" + C.Errors);
        Result.Stats.CompileSeconds = CompileSeconds;
        return Result;
      }
      Result = runGuardedModuleAttempt(std::move(C.M), Inputs, Options,
                                       Faults);
      Result.Stats.CompileSeconds = CompileSeconds;
      return Result;
    } catch (const FaultInjectedError &E) {
      failUnit(Result, Name, "compile", "fault-injected", E.what(),
               std::string("compilation failed: ") + E.what());
    } catch (const std::bad_alloc &) {
      failUnit(Result, Name, "compile", "oom", "allocation failure",
               "compilation failed: allocation failure");
    } catch (const std::exception &E) {
      failUnit(Result, Name, "compile", "exception", E.what(),
               std::string("compilation failed: ") + E.what());
    }
    Result.Stats.CompileSeconds = CompileTimer.seconds();
    return Result;
  });
}

std::vector<cli::Flag>
impact::getPipelineFlags(PipelineOptions &Options, FaultPlan &Faults,
                         std::initializer_list<std::string_view> Names) {
  std::vector<cli::Flag> Flags = {
      {"engine", "E",
       "profiling engine: walk (oracle, default), vm, or both\n"
       "(a divergence between them quarantines the unit)",
       [&Options](const std::string &V, std::string &Error) {
         return parseEngine(V, Options.Engine, &Error);
       }},
      {"instrument", "MODE",
       "profile instrumentation: full (default) or mincover\n"
       "(co-tree probes plus count inference; same profiles)",
       [&Options](const std::string &V, std::string &Error) {
         return parseInstrumentMode(V, Options.Instrument, &Error);
       }},
      {"passes", "SPEC",
       "pre-opt pass selection: all, fold,jump,licm, all,-dce, ...;\n"
       "a bench that sweeps the pass set overrides it per point",
       [&Options](const std::string &V, std::string &Error) {
         return parseOptPasses(V, Options.PreOpt, &Error);
       }},
      {"analyze", "RULES",
       "analyze every post-inline module: RULES = all (default),\n"
       "dead-store, all,-dead-store, ...; off disables; help lists them",
       [&Options](const std::string &V, std::string &Error) {
         if (V == "0" || V == "off") {
           Options.Analyze = false;
           return true;
         }
         Options.Analyze = parseAnalysisRules(V, Options.Analysis, &Error);
         return Options.Analyze;
       },
       /*OptionalValue=*/true,
       /*Short=*/0,
       renderAnalysisRuleTable},
      {"faults", "SPEC",
       "fault plan (support/FaultInjection.h), e.g. wc/profile:throw@1",
       [&Options, &Faults](const std::string &V, std::string &Error) {
         if (!parseFaultPlan(V, Faults, &Error))
           return false;
         Options.Faults = Faults.empty() ? nullptr : &Faults;
         return true;
       }},
      {"retries", "N", "retry attempts for transient faults (default 0)",
       [&Options](const std::string &V, std::string &Error) {
         return cli::parseNonNegative(V, Options.RetryAttempts, Error);
       }},
  };
  if (Names.size() != 0)
    std::erase_if(Flags, [&](const cli::Flag &F) {
      return std::find(Names.begin(), Names.end(), F.Name) == Names.end();
    });
  return Flags;
}

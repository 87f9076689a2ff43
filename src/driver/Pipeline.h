//===- driver/Pipeline.h - The full experiment pipeline ------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four-step experiment of §4: compile, profile on representative
/// inputs, recompile with inline expansion driven by the profile, and
/// measure the effect by re-profiling on the same inputs. The result holds
/// both phases' metrics, so every row of Tables 1-4 can be derived from one
/// PipelineResult.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_DRIVER_PIPELINE_H
#define IMPACT_DRIVER_PIPELINE_H

#include "analysis/Analyzer.h"
#include "core/InlinePass.h"
#include "driver/Compilation.h"
#include "opt/PassManager.h"
#include "profile/Profiler.h"
#include "support/CommandLine.h"

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace impact {

class FunctionDefinitionCache;
struct FaultPlan;

/// Structured description of one unit's pipeline failure — the quarantine
/// record the batch pipeline and the bench harness report instead of
/// aborting the process. Every failure path (diagnostics, verifier
/// violations, interpreter traps and step-limit exhaustion, thrown
/// exceptions, injected faults) converges here.
struct UnitFailure {
  /// The compilation unit (job name / module name).
  std::string Unit;
  /// Pipeline stage that failed: "compile", "verify", "pre-opt",
  /// "profile", "inline", "analyze", or "re-profile".
  std::string Stage;
  /// Failure class: "diagnostic", "trap", "step-limit", "oom",
  /// "fault-injected", "finding" (error-severity analyzer findings), or
  /// "exception".
  std::string Reason;
  /// Human detail: rendered diagnostics, trap message, or what().
  std::string Detail;
  /// Attempts consumed (> 1 when a retry policy was configured).
  unsigned Attempts = 1;

  /// "unit 'wc' failed at profile (step-limit) after 1 attempt(s): ...".
  std::string render() const;
};

struct PipelineOptions {
  /// Pre-inline optimization (the paper applies constant folding and jump
  /// optimization before inline expansion).
  bool RunPreOpt = true;
  OptOptions PreOpt;
  InlineOptions Inline;
  /// Step/stack limits for every profiled run.
  RunOptions Run;
  /// Which execution engine measures the profile and re-profile runs
  /// (interp/Engine.h): the walking interpreter (oracle), the bytecode VM,
  /// or both with divergence turned into a quarantinable trap. Engine
  /// choice never changes profiles or outputs — the differential tier
  /// enforces bit-identical results — only wall time.
  ExecEngine Engine = ExecEngine::Walker;
  /// How the profile and re-profile runs are instrumented
  /// (profile/MinCover.h): full per-site/per-opcode counters, or
  /// minimum-coverage co-tree probes with Kirchhoff count inference.
  /// Instrumentation choice never changes profiles or outputs — the
  /// mincover property tier enforces bit-identical ProfileData — only the
  /// profiling phase's wall time.
  InstrumentMode Instrument = InstrumentMode::Full;
  /// Optional function-definition cache for the pre-opt stage (see
  /// driver/FunctionCache.h). When set, post-pre-opt bodies are memoized
  /// across pipeline runs; the batch pipeline shares one cache between all
  /// its jobs. A hit is bit-identical to re-running the passes, so results
  /// never depend on cache state.
  FunctionDefinitionCache *DefCache = nullptr;
  /// When set, the measuring profile runs (step 2) are skipped and inline
  /// expansion is driven by this previously saved profile instead
  /// (profile/ProfileIO.h). The serialization is exact, so a reloaded
  /// profile reproduces the measuring run's InlinePlan bit for bit.
  /// OutputsBefore stays empty in this mode (nothing was executed), which
  /// makes outputsMatch() vacuously true. A profile whose site or function
  /// count differs from the module's was measured on another module: the
  /// unit is quarantined (stage "profile", reason "diagnostic").
  const ProfileData *ProfileIn = nullptr;
  /// When true, render the planner's per-site rulings into
  /// PipelineResult::DecisionTrace (the human table form of
  /// driver/DecisionTrace.h).
  bool EmitDecisionTrace = false;
  /// When true, run the static analyzer (analysis/Analyzer.h) on the
  /// post-inline module before re-profiling. Warn findings ride along in
  /// PipelineResult::Analysis; error findings (broken inliner invariants)
  /// quarantine the unit with UnitFailure stage "analyze". The analyzer
  /// never mutates the module, so surviving units are bit-identical with
  /// this on or off.
  bool Analyze = false;
  /// Rule selection and tolerances for the analyze stage.
  AnalysisOptions Analysis;
  /// Deterministic fault plan (support/FaultInjection.h), normally parsed
  /// from --faults=. Each attempt opens its own FaultSession, so
  /// injection is reproducible at any batch thread count. Null = inert.
  const FaultPlan *Faults = nullptr;
  /// Extra attempts after a failed one (bounded retry for transient
  /// faults). 0 = fail fast. Retries recompile from source (or re-run a
  /// copy of the input module), so a successful retry is bit-identical
  /// to a run that never failed.
  unsigned RetryAttempts = 0;
};

/// The pipeline's command-line rows (support/CommandLine.h) — --engine,
/// --instrument, --passes, --analyze[=RULES], --faults, --retries — each
/// running its strict parser straight into \p Options. A parsed fault
/// plan lives in \p Faults, which must outlive \p Options. \p Names, when
/// given, keeps only those rows.
std::vector<cli::Flag>
getPipelineFlags(PipelineOptions &Options, FaultPlan &Faults,
                 std::initializer_list<std::string_view> Names = {});

/// Wall-clock and work counters for one pipeline run, per phase. Purely
/// observational: none of these feed back into compilation, so two runs of
/// the same job produce identical modules and metrics regardless of
/// timing, threading, or cache state.
struct PipelineStats {
  double CompileSeconds = 0.0;
  double PreOptSeconds = 0.0;
  double ProfileSeconds = 0.0;
  double InlineSeconds = 0.0;
  double AnalyzeSeconds = 0.0;
  double ReProfileSeconds = 0.0;
  /// Per-pass breakdown of the pre-opt stage (cache hits skip it).
  OptStats PreOpt;
  /// Function-definition cache effectiveness for this run (0/0 when no
  /// cache was attached).
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  /// 1 when this run ended in a quarantined UnitFailure (sums to the
  /// batch's failed-unit count through merge()).
  uint64_t UnitsFailed = 0;
  /// Attempts beyond the first consumed by the retry policy.
  uint64_t Retries = 0;

  double getTotalSeconds() const {
    return CompileSeconds + PreOptSeconds + ProfileSeconds + InlineSeconds +
           AnalyzeSeconds + ReProfileSeconds;
  }

  void merge(const PipelineStats &Other) {
    CompileSeconds += Other.CompileSeconds;
    PreOptSeconds += Other.PreOptSeconds;
    ProfileSeconds += Other.ProfileSeconds;
    InlineSeconds += Other.InlineSeconds;
    AnalyzeSeconds += Other.AnalyzeSeconds;
    ReProfileSeconds += Other.ReProfileSeconds;
    PreOpt.merge(Other.PreOpt);
    CacheHits += Other.CacheHits;
    CacheMisses += Other.CacheMisses;
    UnitsFailed += Other.UnitsFailed;
    Retries += Other.Retries;
  }
};

/// Dynamic metrics of one phase (pre- or post-inline), averaged per run.
struct PhaseMetrics {
  uint64_t StaticSize = 0;
  double AvgInstrs = 0.0;
  double AvgControlTransfers = 0.0;
  double AvgCalls = 0.0;
  double AvgExternalCalls = 0.0;
  double AvgPointerCalls = 0.0;
  /// Dynamic calls attributable to each class (per run).
  double DynExternal = 0.0;
  double DynPointer = 0.0;
  double DynUnsafe = 0.0;
  double DynSafe = 0.0;

  /// Table 4's "IL's per call".
  double getInstrsPerCall() const {
    return AvgCalls == 0.0 ? AvgInstrs : AvgInstrs / AvgCalls;
  }
  /// Table 4's "CT's per call".
  double getControlTransfersPerCall() const {
    return AvgCalls == 0.0 ? AvgControlTransfers
                           : AvgControlTransfers / AvgCalls;
  }

  /// Exact (bitwise) equality — the parallel-determinism property test
  /// asserts batch and serial pipelines agree on every field.
  friend bool operator==(const PhaseMetrics &, const PhaseMetrics &) = default;
};

struct PipelineResult {
  bool Ok = false;
  std::string Error;
  /// Structured form of Error: the stage, reason class, and detail the
  /// batch pipeline quarantines and reports. Meaningful only when !Ok.
  UnitFailure Failure;
  /// Arrivals per fault site (sorted by site), recorded whenever
  /// PipelineOptions::Faults is non-null — including an empty plan, which
  /// is how the fault-matrix test discovers each site's occurrence range.
  std::vector<std::pair<std::string, uint64_t>> FaultSiteHits;

  PhaseMetrics Before;
  PhaseMetrics After;
  InlineResult Inline;
  /// Classification of the pre-inline module (Tables 2/3).
  // (Inline.Classes is exactly this; kept there to avoid duplication.)

  /// Program outputs per input, for both phases; inline expansion must
  /// leave them identical.
  std::vector<std::string> OutputsBefore;
  std::vector<std::string> OutputsAfter;

  /// The pre-inline profile that drove planning: measured in step 2, or a
  /// copy of *ProfileIn when the measuring runs were skipped. This is what
  /// --profile-out= persists (profile/ProfileIO.h).
  ProfileData ProfileBefore;
  /// Per-site decision trace table; filled when EmitDecisionTrace is set.
  std::string DecisionTrace;
  /// Analyzer findings (sorted); filled when PipelineOptions::Analyze is
  /// set. Error findings also fail the unit (Failure.Stage == "analyze"),
  /// but the full report survives here for rendering either way.
  AnalysisReport Analysis;

  /// The inlined module (post everything).
  Module FinalModule;

  /// Per-phase wall times, pre-opt pass breakdown, and cache counters.
  PipelineStats Stats;

  /// Table 4's "call dec": percentage of dynamic calls eliminated.
  double getCallDecreasePercent() const {
    if (Before.AvgCalls == 0.0)
      return 0.0;
    double Dec = 100.0 * (Before.AvgCalls - After.AvgCalls) / Before.AvgCalls;
    return Dec;
  }
  double getCodeIncreasePercent() const {
    return Inline.getCodeIncreasePercent();
  }
  /// Vacuously true when there are no "before" outputs to compare — i.e.
  /// when ProfileIn skipped the measuring runs.
  bool outputsMatch() const {
    return OutputsBefore.empty() || OutputsBefore == OutputsAfter;
  }
};

/// Runs the whole experiment on \p Source over \p Inputs.
PipelineResult runPipeline(std::string_view Source, std::string Name,
                           const std::vector<RunInput> &Inputs,
                           const PipelineOptions &Options = PipelineOptions());

/// Same, starting from an already-compiled module (consumed).
PipelineResult runPipeline(Module M, const std::vector<RunInput> &Inputs,
                           const PipelineOptions &Options = PipelineOptions());

} // namespace impact

#endif // IMPACT_DRIVER_PIPELINE_H

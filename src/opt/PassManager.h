//===- opt/PassManager.h - Optimization pipeline -------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef IMPACT_OPT_PASSMANAGER_H
#define IMPACT_OPT_PASSMANAGER_H

#include "ir/Ir.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace impact {

/// Which classic optimizations to run.
///
/// Every field here is part of a cached function body's identity:
/// driver/FunctionCache.cpp fingerprints each one in makeKey, and its
/// static_assert on sizeof(OptOptions) plus the exhaustive toggle test in
/// tests/PipelineTests.cpp trip when a knob is added without extending
/// the fingerprint.
struct OptOptions {
  bool ConstantFolding = true;
  bool JumpOptimization = true;
  bool CopyPropagation = true;
  bool DeadCodeElimination = true;
  /// Off by default: the paper's measurements do not include it, and it
  /// assumes C's uninitialized-local semantics (see the pass header).
  bool TailRecursionElimination = false;
  /// The post-inline cleanup (opt/LoopInvariantCodeMotion.h). Off by
  /// default: the paper's Table 4 baseline predates it; the ablation
  /// benches and --passes= turn it on.
  bool LoopInvariantCodeMotion = false;

  /// Exact equality — the bench footer uses it to print the [passes]
  /// line only when --passes= moved the base pipeline off the default.
  friend bool operator==(const OptOptions &, const OptOptions &) = default;
};

/// Renders the enabled passes of \p Opts as a comma-separated list of
/// parseOptPasses names ("fold,jump,copy,dce"; "none" when all are off) —
/// the inverse presentation of parseOptPasses for footers and traces.
std::string renderOptPasses(const OptOptions &Opts);

/// Parses a pass-selection spec into \p Out (cli::parseSelection's
/// grammar over "fold", "jump", "copy", "dce", "tre", "licm": "fold,licm"
/// is exactly those, "all,-licm" all but one). Returns false and fills
/// \p Error (when non-null) on an unknown name, leaving \p Out untouched.
bool parseOptPasses(std::string_view Spec, OptOptions &Out,
                    std::string *Error);

/// Wall time and effect counters for one pass across a pipeline run.
/// Timing is observability only — no optimization decision reads it — so
/// counters never perturb the transformed IL.
struct PassTiming {
  double Seconds = 0.0;
  uint64_t Invocations = 0;
  uint64_t Changes = 0;

  void merge(const PassTiming &Other) {
    Seconds += Other.Seconds;
    Invocations += Other.Invocations;
    Changes += Other.Changes;
  }
};

/// Per-pass and aggregate counters for one or more pipeline runs.
struct OptStats {
  PassTiming TailRecursionElimination;
  PassTiming CopyPropagation;
  PassTiming ConstantFolding;
  PassTiming JumpOptimization;
  PassTiming LoopInvariantCodeMotion;
  PassTiming DeadCodeElimination;
  /// Functions the pipeline was invoked on.
  uint64_t FunctionsVisited = 0;
  /// Fixpoint iterations across all functions.
  uint64_t Iterations = 0;
  /// IL instructions fed to the pass sequence, summed per iteration — the
  /// work metric the function-definition cache saves.
  uint64_t InstrsProcessed = 0;
  double TotalSeconds = 0.0;

  void merge(const OptStats &Other) {
    TailRecursionElimination.merge(Other.TailRecursionElimination);
    CopyPropagation.merge(Other.CopyPropagation);
    ConstantFolding.merge(Other.ConstantFolding);
    JumpOptimization.merge(Other.JumpOptimization);
    LoopInvariantCodeMotion.merge(Other.LoopInvariantCodeMotion);
    DeadCodeElimination.merge(Other.DeadCodeElimination);
    FunctionsVisited += Other.FunctionsVisited;
    Iterations += Other.Iterations;
    InstrsProcessed += Other.InstrsProcessed;
    TotalSeconds += Other.TotalSeconds;
  }
};

/// Runs the enabled passes on \p F until a fixpoint, sweeping the pass
/// sequence at most four times. Accumulates per-pass wall time and work
/// counters into \p Stats when non-null. Returns true on any change.
bool runOptimizationPipeline(Function &F, const OptOptions &Opts,
                             OptStats *Stats);
inline bool runOptimizationPipeline(Function &F,
                                    const OptOptions &Opts = OptOptions()) {
  return runOptimizationPipeline(F, Opts, nullptr);
}

/// Runs the pipeline on every non-external function.
bool runOptimizationPipeline(Module &M, const OptOptions &Opts,
                             OptStats *Stats);
inline bool runOptimizationPipeline(Module &M,
                                    const OptOptions &Opts = OptOptions()) {
  return runOptimizationPipeline(M, Opts, nullptr);
}

} // namespace impact

#endif // IMPACT_OPT_PASSMANAGER_H

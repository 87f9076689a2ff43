//===- driver/BatchPipeline.h - Parallel whole-suite experiments -----------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs many independent compile→profile→inline→re-profile pipelines
/// concurrently on a work-stealing thread pool. This is the batch form of
/// the paper's §4 experiment: every table and ablation iterates the same
/// 12-program suite, so the suite is the natural unit of parallelism.
///
/// Determinism contract: each job is self-contained (own module, own
/// profile, fixed linearization seed) and shares no mutable state with
/// the others, so `runBatchPipeline(Jobs, N threads)` yields results
/// bit-identical to running each job through `runPipeline` serially —
/// enforced by the ParallelDeterminism property test. Only the timing
/// fields may differ between runs.
///
/// Failure containment: one unit failing — malformed source, a verifier
/// violation, an interpreter trap or step-limit exhaustion, a thrown
/// exception, or an injected fault (support/FaultInjection.h) — is
/// quarantined as a structured UnitFailure on its own result slot; every
/// other job runs to completion and stays bit-identical to a batch where
/// the failing unit never existed.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_DRIVER_BATCHPIPELINE_H
#define IMPACT_DRIVER_BATCHPIPELINE_H

#include "driver/Pipeline.h"

#include <string>
#include <vector>

namespace impact {

/// One program's experiment: source, inputs, and the full pipeline knobs.
/// Jobs carry their own options so a batch can mix configurations (an
/// ablation sweep batches all its points at once).
///
/// A job normally compiles Source from scratch. The compile server
/// instead dispatches already-compiled (and, for multi-unit programs,
/// linked) modules: set PrecompiledModule/HasModule and leave Source
/// empty. Because the frontend is deterministic, a precompiled-module job
/// is bit-identical to a source job of the same program — the wiring
/// test in the server tier pins that.
struct BatchJob {
  std::string Name;
  std::string Source;
  std::vector<RunInput> Inputs;
  PipelineOptions Options;
  /// When HasModule, the pipeline starts at the module (verify/pre-opt)
  /// stage on a copy of this module and Source is ignored.
  Module PrecompiledModule;
  bool HasModule = false;
};

struct BatchOptions {
  /// Worker threads; 0 = one per hardware thread.
  unsigned Jobs = 0;
};

struct BatchResult {
  /// One result per job, in job order (independent of completion order).
  std::vector<PipelineResult> Results;
  /// Wall time of the whole batch (the parallel speedup numerator is the
  /// sum of per-job Stats.getTotalSeconds()).
  double WallSeconds = 0.0;
  unsigned ThreadsUsed = 1;
  /// Per-job stats summed: cpu seconds per phase, pre-opt work.
  PipelineStats Aggregate;
  /// Quarantine records of every failed job, in job order (one per
  /// failed Results slot; empty when allOk()).
  std::vector<UnitFailure> Failures;

  bool allOk() const;
  /// Index of the first failed job, or -1.
  int firstFailure() const;
  /// Sum of per-job pipeline cpu time — what a serial run would cost.
  double getCpuSeconds() const { return Aggregate.getTotalSeconds(); }
  /// CPU-seconds / wall-seconds: the realized parallelism.
  double getSpeedup() const {
    return WallSeconds == 0.0 ? 0.0 : getCpuSeconds() / WallSeconds;
  }
};

/// Runs every job's pipeline, \p Options.Jobs at a time.
BatchResult runBatchPipeline(const std::vector<BatchJob> &Jobs,
                             const BatchOptions &Options = BatchOptions());

/// Renders the per-job phase-timing table plus the batch summary (threads,
/// wall vs cpu time, pre-opt work) with driver/Report's TableWriter.
std::string renderBatchReport(const std::vector<BatchJob> &Jobs,
                              const BatchResult &Result);

} // namespace impact

#endif // IMPACT_DRIVER_BATCHPIPELINE_H

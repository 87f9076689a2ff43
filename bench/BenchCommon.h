//===- bench/BenchCommon.h - Shared experiment harness -----------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the table/ablation benches: runs the full §4
/// experiment (compile → profile → inline → re-profile) over the 12-program
/// suite and hands each bench the per-benchmark PipelineResult.
///
/// All suite experiments go through driver/BatchPipeline: the 12 programs
/// run `--jobs` pipelines at a time (default: one per hardware thread;
/// also settable via the IMPACT_JOBS environment variable) and share one
/// process-wide function-definition cache, so an ablation sweep that
/// recompiles the suite per configuration point pays the pre-opt cost
/// once. Results are bit-identical to the serial pipeline at any job
/// count; see the ParallelDeterminism property test.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_BENCH_BENCHCOMMON_H
#define IMPACT_BENCH_BENCHCOMMON_H

#include "driver/BatchPipeline.h"
#include "driver/Pipeline.h"
#include "driver/Report.h"
#include "suite/Suite.h"

#include <string>
#include <vector>

namespace impact {
namespace bench {

/// One benchmark's experiment outcome.
struct SuiteRun {
  std::string Name;
  std::string InputDescription;
  unsigned Runs = 0;
  unsigned SourceLines = 0;
  PipelineResult Result;
};

/// Parses the shared bench flags from \p argv and installs them for every
/// subsequent runSuiteExperiment. Call first in main().
///
///   --jobs N / -j N   worker threads (also the IMPACT_JOBS environment
///                     variable; strictly parsed and clamped to
///                     [1, hardware threads] — see support/ThreadPool.h's
///                     parseJobCount)
///   --profile-out=DIR write each program's measured profile to
///                     DIR/<name>.profile (profile/ProfileIO.h format)
///   --profile-in=DIR  drive inline expansion from saved profiles instead
///                     of re-running the interpreter's measuring runs
///   --trace-out=FILE  write every program's per-site inline decision
///                     trace as JSON lines (driver/DecisionTrace.h);
///                     quarantined units appear as "failed":true records
///   --faults=SPEC     deterministic fault plan (support/FaultInjection.h
///                     grammar; also the IMPACT_FAULTS environment
///                     variable). A malformed spec aborts the bench with
///                     exit code 2 — a typo never silently disarms a fault
///   --retries=N       bounded retry attempts for transient faults
///                     (PipelineOptions::RetryAttempts; default 0)
///   --analyze[=SPEC]  run the static analyzer (analysis/Analyzer.h) on
///                     every post-inline module (also the IMPACT_ANALYZE
///                     environment variable; "0"/"off" disable). SPEC
///                     selects rules ("all", "dead-store,uninit-read",
///                     "all,-dead-store"); a malformed spec aborts with
///                     exit code 2. Warn findings go to stderr and the
///                     --trace-out JSONL; error findings quarantine the
///                     unit like any other pipeline failure
///   --engine=E        execution engine for the profile/re-profile runs:
///                     "walk" (tree-walking oracle, the default), "vm"
///                     (bytecode VM, vm/Vm.h), or "both" (run both, any
///                     divergence quarantines the unit). Also the
///                     IMPACT_ENGINE environment variable. Strictly
///                     parsed (interp/Engine.h parseEngine); a bad value
///                     aborts with exit code 2 — a typo never silently
///                     benchmarks the wrong engine
///   --instrument=I    instrumentation mode for the profile/re-profile
///                     runs: "full" (per-site and per-opcode counters, the
///                     default) or "mincover" (minimum-coverage co-tree
///                     probes with Kirchhoff count inference,
///                     profile/MinCover.h). Also the IMPACT_INSTRUMENT
///                     environment variable. Strictly parsed
///                     (parseInstrumentMode); a bad value aborts with exit
///                     code 2. Mode choice never changes profiles or
///                     tables — only the profiling phase's wall time
///   --passes=SPEC     pre-opt pass selection for every job still at the
///                     default pass set (opt/PassManager.h parseOptPasses
///                     grammar: "all", "fold,jump,licm", "all,-dce", ...).
///                     Also the IMPACT_PASSES environment variable.
///                     Strictly parsed; an unknown pass name aborts with
///                     exit code 2 — a typo never silently benchmarks the
///                     wrong pipeline
void initBenchHarness(int argc, char **argv);

/// The installed worker count; 0 means one per hardware thread.
unsigned getConfiguredJobs();

/// The installed fault plan (--faults= / IMPACT_FAULTS); null when none
/// was configured.
const FaultPlan *getConfiguredFaults();

/// The installed retry budget (--retries=).
unsigned getConfiguredRetries();

/// True when --analyze / IMPACT_ANALYZE enabled the analyzer.
bool getConfiguredAnalyze();

/// The installed execution engine (--engine= / IMPACT_ENGINE); Walker when
/// none was configured.
ExecEngine getConfiguredEngine();

/// True when --engine= / IMPACT_ENGINE set an engine explicitly.
bool isEngineConfigured();

/// The installed instrumentation mode (--instrument= / IMPACT_INSTRUMENT);
/// Full when none was configured.
InstrumentMode getConfiguredInstrument();

/// True when --instrument= / IMPACT_INSTRUMENT set a mode explicitly.
bool isInstrumentConfigured();

/// The installed pre-opt pass selection (--passes= / IMPACT_PASSES);
/// OptOptions defaults when none was configured.
const OptOptions &getConfiguredPasses();

/// True when --passes= / IMPACT_PASSES set a pass selection explicitly.
bool arePassesConfigured();

/// The installed rule selection (meaningful when getConfiguredAnalyze()).
const AnalysisOptions &getConfiguredAnalysisOptions();

/// The process-wide function-definition cache shared by every suite batch
/// this bench runs (ablation sweeps hit it across configurations).
FunctionDefinitionCache &getSharedDefinitionCache();

/// One BatchJob per suite benchmark (\p RunsOverride 0 = Table 1 runs).
std::vector<BatchJob> makeSuiteBatchJobs(const PipelineOptions &Options =
                                             PipelineOptions(),
                                         unsigned RunsOverride = 0);

/// Runs the experiment over all 12 benchmarks as one parallel batch. \p
/// RunsOverride scales the number of profiled inputs (0 = each benchmark's
/// Table 1 default).
///
/// Failure containment: a failing benchmark is quarantined, not fatal —
/// its SuiteRun is returned with Result.Ok == false (tables must skip such
/// rows), a "[failed]" line goes to stderr, and --trace-out= records the
/// failure as a "failed":true JSONL object. The process aborts only when
/// every benchmark fails (nothing to report) or when a benchmark that ran
/// produces different output after inlining — the soundness property stays
/// fatal on every run.
std::vector<SuiteRun> runSuiteExperiment(const PipelineOptions &Options =
                                             PipelineOptions(),
                                         unsigned RunsOverride = 0);

/// Timing/cache footer for the batches run so far: wall vs cpu seconds,
/// realized parallelism, definition-cache hit counters, and one
/// "[failed]" line per quarantined unit. Benches print it after their
/// tables.
std::string renderBenchFooter();

/// Lines of MiniC in \p Source (the Table 1 "C lines" analogue).
unsigned countSourceLines(const std::string &Source);

/// Appends printf-formatted text to \p Out (the JSON emitters' workhorse).
void appendFormat(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Writes \p Contents to \p Path atomically: the bytes go to
/// "<Path>.tmp" first and are renamed over \p Path only after a clean
/// close, so a reader (CI polling BENCH_*.json) never observes a
/// truncated file and a crashed bench never clobbers the previous
/// artifact. Returns false and fills \p Error on failure; the temp file
/// is removed on every failure path.
bool writeFileAtomic(const std::string &Path, const std::string &Contents,
                     std::string *Error = nullptr);

/// Paper reference values for Table 4 (per benchmark, paper order).
struct PaperTable4Row {
  const char *Name;
  double CodeInc;   // percent
  double CallDec;   // percent
  double IlPerCall;
  double CtPerCall;
};
const std::vector<PaperTable4Row> &getPaperTable4();

} // namespace bench
} // namespace impact

#endif // IMPACT_BENCH_BENCHCOMMON_H

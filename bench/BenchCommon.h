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
/// run `--jobs` pipelines at a time (default: one per hardware thread) and
/// share one process-wide function-definition cache, so an ablation sweep
/// that recompiles the suite per configuration point pays the pre-opt cost
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

/// Parses the harness flags (run any bench with --help for the table):
/// --jobs, --profile-out, --profile-in, --trace-out and the pipeline rows
/// of driver/Pipeline.h. Exits 0 after --help and 2 on a bad command line,
/// before any work runs. Call first in main().
void initBenchHarness(int argc, char **argv);

/// The pipeline options given on the command line. Every suite batch
/// starts from them: a bench copies them and sets the field it sweeps.
const PipelineOptions &baseOptions();

/// The --jobs row: strictly parsed into \p Jobs and clamped to
/// [1, hardware threads] with a note (support/ThreadPool.h parseJobCount).
cli::Flag makeJobsFlag(unsigned &Jobs);

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
std::vector<SuiteRun> runSuiteExperiment(const PipelineOptions &Options,
                                         unsigned RunsOverride = 0);

/// Timing/cache footer for the batches run so far: wall vs cpu seconds,
/// realized parallelism, definition-cache hit counters, and one
/// "[failed]" line per quarantined unit. Benches print it after their
/// tables.
std::string renderBenchFooter();

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

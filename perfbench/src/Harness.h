//===- perfbench/src/Harness.h - Shared benchmark plumbing ----------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the command line, CPU and memory sampling,
/// order statistics, the deterministic quality figures and their drift
/// check, the end-to-end metrics, and the result record main() prints.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_PERFBENCH_HARNESS_H
#define IMPACT_PERFBENCH_HARNESS_H

#include "driver/Pipeline.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  /// Where the traced run writes its spans; empty = not written.
  std::string TraceOut;
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// What one run hands back to main().
struct RunReport {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Human-readable reasons for failed ops, drift, or a traced pipeline
  /// that did not reproduce runPipeline; any entry makes the run incorrect.
  std::vector<std::string> Errors;
  std::vector<Metric> Metrics;
  /// Fingerprint of the run's deterministic figures; two runs of one seed
  /// must print the same digest.
  std::string Digest;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

/// Set-up is repeated this many times per run and its median reported. The
/// server's cold compile is short (under a second), so it is repeated more
/// often; the suites' set-up runs every reference input and takes seconds.
constexpr unsigned SuiteSetupRepeats = 3;
constexpr unsigned ServerSetupRepeats = 9;

/// User + system CPU seconds of this process so far (getrusage).
struct CpuTimes {
  double User = 0.0;
  double Sys = 0.0;
  static CpuTimes now();
  double total() const { return User + Sys; }
};

/// Peak resident set size of this process, in MiB.
double getPeakRssMb();

double median(std::vector<double> Values);
/// Nearest-rank percentile (\p P in (0, 100]) of \p Values.
double percentile(std::vector<double> Values, double P);
double geomean(const std::vector<double> &Values);

/// Deterministic figures of one set of program results: the paper's
/// quality ratios (per program) and the work counts the layers report.
/// Identical for every run of one seed; compared bit for bit.
struct Quality {
  std::vector<double> DynIlRatio;
  std::vector<double> DynCallsRatio;
  std::vector<double> CodeGrowth;
  uint64_t Expansions = 0;
  uint64_t IlExecuted = 0;
  uint64_t SizeAfterPreopt = 0;
  uint64_t SizeAfterInline = 0;
  uint64_t Findings = 0;

  /// Adds one program's experiment.
  void addProgram(const impact::PipelineResult &R, size_t Runs);

  std::string digest() const;
  friend bool operator==(const Quality &, const Quality &) = default;
};

/// Adds every end-to-end metric to \p Report. A step is one pass or
/// round: every program once. \p LatencySeconds holds the wall time of
/// each request the latency percentiles describe (an edit on the server, a
/// whole pass on the suites) and \p CpuSeconds the CPU time of all steps;
/// the quality ratios are geometric means of \p Q's per-program figures.
void addEndToEndMetrics(RunReport &Report,
                        const std::vector<double> &SetupSeconds,
                        double OpsPerStep, const std::vector<double> &StepWalls,
                        const std::vector<double> &LatencySeconds,
                        double CpuSeconds, const Quality &Q);

/// The layers the per-layer tables report a share for, by span-name
/// prefix.
constexpr const char *LayerNames[] = {"frontend", "ir",        "opt",
                                      "profile",  "core",      "analysis",
                                      "callgraph", "driver"};

/// Empty when \p R completed and both its output vectors equal
/// \p Reference; otherwise why the op failed.
std::string checkOutputs(const impact::PipelineResult &R,
                         const std::vector<std::string> &Reference);

/// Function-definition cache lookups of one pipeline run, as PipelineStats
/// reports them. Both are 0 when PipelineStats has no cache counters: the
/// benchmark must keep compiling if the cache is deleted.
struct CacheCounts {
  uint64_t Hits = 0;
  uint64_t Lookups = 0;
};
template <typename StatsT> CacheCounts getCacheCounts(const StatsT &S) {
  if constexpr (requires { S.CacheHits + S.CacheMisses; })
    return {S.CacheHits, S.CacheHits + S.CacheMisses};
  else
    return {};
}

RunReport runSuiteWorkload(const Args &A, const impact::PipelineOptions &O,
                           impact::ExecEngine ReferenceEngine);
RunReport runServerWorkload(const Args &A);

} // namespace perfbench

#endif // IMPACT_PERFBENCH_HARNESS_H

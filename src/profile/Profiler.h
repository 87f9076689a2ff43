//===- profile/Profiler.h - Multi-run profiling driver -----------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef IMPACT_PROFILE_PROFILER_H
#define IMPACT_PROFILE_PROFILER_H

#include "interp/Engine.h"
#include "profile/MinCover.h"
#include "profile/Profile.h"

#include <string>
#include <vector>

namespace impact {

/// One representative input for a profiled program.
struct RunInput {
  std::string Input;
  std::string Input2;
};

/// One non-Exited profiled run, with the interpreter status preserved so
/// the pipeline's failure containment can distinguish a trap (the
/// program's fault) from step-limit exhaustion (the harness's limit).
struct ProfileRunFailure {
  unsigned RunIndex = 0;
  ExecResult::Status Status = ExecResult::Status::Trapped;
  /// The interpreter's trap message ("division by zero", "step limit
  /// exceeded", ...).
  std::string Message;
};

/// Outcome of profiling a program over a set of inputs.
struct ProfileResult {
  ProfileData Data;
  /// Non-Exited runs, as "run <i>: <message>" strings; profiling is only
  /// trustworthy when this is empty.
  std::vector<std::string> Failures;
  /// The same failures with the interpreter status preserved (parallel to
  /// Failures, same order).
  std::vector<ProfileRunFailure> RunFailures;
  /// Outputs of each run, in input order (used by equivalence tests).
  std::vector<std::string> Outputs;

  bool allRunsOk() const { return Failures.empty(); }
};

/// Runs \p M once per input and accumulates the statistics. \p Base
/// supplies step/stack limits. \p Engine selects the measuring engine:
/// under ExecEngine::Vm the module is compiled to bytecode once and each
/// input runs through the VM (the walker is still used when Base.ICache is
/// set — only it streams layout addresses); under ExecEngine::Both every
/// input runs through both engines and any observable difference is
/// recorded as a trapped run ("engine divergence: ..."), so a divergence
/// quarantines the unit instead of corrupting its profile.
///
/// Under InstrumentMode::MinCover one MinCoverPlan is built for the module
/// and every run executes with co-tree probes only (the walker skips
/// non-instrumented bumps; the VM is compiled without site counters); each
/// run's raw arc counters are rehydrated into full ExecStats by
/// inferCounts() before accumulation, so the returned ProfileData is
/// bit-identical to full instrumentation and everything downstream
/// (planner, decision trace, weight audits) is unaware of the mode. Under
/// ExecEngine::Both the RAW mincover observables (arc counters, halt
/// records) are compared across engines before inference.
///
/// The inputs run concurrently (support/ThreadPool.h's parallelFor), each
/// run folded into the totals as it finishes. The totals are sums and one
/// max, so they are bit-identical to a serial loop in input order, and
/// Outputs, Failures and RunFailures still come out in input order. Runs
/// stay serial, in input order, when Base.ICache or Base.FactCheck is set:
/// both are sinks shared by every run.
ProfileResult profileProgram(const Module &M,
                             const std::vector<RunInput> &Inputs,
                             const RunOptions &Base = RunOptions(),
                             ExecEngine Engine = ExecEngine::Walker,
                             InstrumentMode Instrument = InstrumentMode::Full);

} // namespace impact

#endif // IMPACT_PROFILE_PROFILER_H

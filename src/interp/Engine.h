//===- interp/Engine.h - Execution engine selection --------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Selects which execution engine measures a program: the tree-walking
/// interpreter (src/interp — the semantics oracle), the bytecode VM
/// (src/vm), or both. "Both" runs the walker and the VM on the same inputs
/// and turns any observable difference into a trap, so an engine divergence
/// surfaces as a structured, quarantinable unit failure instead of a wrong
/// profile.
///
/// Spelled `walk` / `vm` / `both` everywhere user-facing (--engine=);
/// parseEngine is strict in the parseJobCount mold —
/// anything else is diagnosed, never guessed.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_INTERP_ENGINE_H
#define IMPACT_INTERP_ENGINE_H

#include "interp/Interpreter.h"

#include <string>

namespace impact {

enum class ExecEngine {
  Walker, // tree-walking interpreter (oracle)
  Vm,     // bytecode VM
  Both,   // run both; any divergence becomes a trap
};

/// The user-facing spelling: "walk", "vm", or "both".
const char *getEngineName(ExecEngine Engine);

/// Parses \p Text ("walk" | "vm" | "both") into \p Out. Returns false and
/// (when \p Diag is non-null) a one-line diagnostic for anything else —
/// empty strings, prefixes, case variants, and trailing garbage included.
bool parseEngine(const std::string &Text, ExecEngine &Out,
                 std::string *Diag = nullptr);

/// Describes the first observable difference between two ExecResults
/// ("status: exited vs trapped", "stats.SiteCounts[3]: 10 vs 12", ...).
/// Empty when they are bit-identical across status, exit code, trap
/// message, output, and every ExecStats field.
std::string describeResultDifference(const ExecResult &A, const ExecResult &B);

/// Runs \p M under \p Engine. Vm falls back to the walker when
/// Opts.ICache is set (only the walker streams layout addresses). Both
/// returns the walker's result, or a synthetic "engine divergence: ..."
/// trap when the VM disagrees with it.
ExecResult runProgramWith(ExecEngine Engine, const Module &M,
                          const RunOptions &Opts = RunOptions());

} // namespace impact

#endif // IMPACT_INTERP_ENGINE_H

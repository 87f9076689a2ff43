//===- vm/Vm.h - Token-threaded bytecode VM ----------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a compiled VmProgram (vm/Bytecode.h) and produces an ExecResult
/// bit-identical to the walking interpreter's (interp/Interpreter.h):
/// identical outputs, exit codes, trap kinds and messages, step accounting,
/// and profile node/arc/opcode counts on every program. The walker is the
/// semantics oracle; the differential test tier asserts the equivalence on
/// the whole suite and on randomized corpora.
///
/// Dispatch is token-threaded through computed goto, a GCC/Clang extension
/// (the library already requires one of the two).
///
/// The VM does not stream per-instruction layout addresses, so
/// RunOptions::ICache is not honored here — callers that need icache
/// simulation use the walker (runProgramWith in interp/Engine.h selects it
/// automatically).
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_VM_VM_H
#define IMPACT_VM_VM_H

#include "interp/Interpreter.h"
#include "vm/Bytecode.h"

namespace impact {

/// Execution-side superinstruction accounting (the dynamic half of
/// VmCompileStats). Purely observational; not part of the differential
/// equivalence contract.
struct VmRunStats {
  /// Superinstructions dispatched (each covers 2 IL steps).
  uint64_t FusedCmpBr = 0;
  /// Total executed IL steps (== ExecStats::InstrCount).
  uint64_t IlSteps = 0;

  /// Fraction of executed IL steps covered by a superinstruction.
  double getFusedStepFraction() const {
    uint64_t Covered = 2 * FusedCmpBr;
    return IlSteps == 0 ? 0.0
                        : static_cast<double>(Covered) /
                              static_cast<double>(IlSteps);
  }

  void merge(const VmRunStats &O) {
    FusedCmpBr += O.FusedCmpBr;
    IlSteps += O.IlSteps;
  }
};

/// Runs \p P from its main function. \p Stats, when non-null, receives the
/// run's superinstruction counters. RunOptions::ICache is ignored (see
/// file comment).
ExecResult runProgramVm(const VmProgram &P,
                        const RunOptions &Opts = RunOptions(),
                        VmRunStats *Stats = nullptr);

/// Convenience: compile \p M and run it once. When \p Opts.ICache is set,
/// this delegates to the walker (the only engine that streams layout
/// addresses), so results stay identical either way. For repeated runs of
/// one module, compile once with compileToBytecode and use the overload
/// above.
ExecResult runProgramVm(const Module &M,
                        const RunOptions &Opts = RunOptions(),
                        VmRunStats *Stats = nullptr);

} // namespace impact

#endif // IMPACT_VM_VM_H

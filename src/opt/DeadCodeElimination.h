//===- opt/DeadCodeElimination.h - Remove unused pure defs ---------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef IMPACT_OPT_DEADCODEELIMINATION_H
#define IMPACT_OPT_DEADCODEELIMINATION_H

#include "ir/Ir.h"

namespace impact {

/// Removes instructions whose destination register is never read anywhere
/// in the function, iterating to a fixpoint. Only opcodes the opcode table
/// (ir/Opcode.h) marks pure are removed, plus loads: removing a dead load
/// can only remove a trap on an already-broken program, the usual compiler
/// stance. Calls, stores, terminators and div/rem (whose zero-divisor and
/// INT64_MIN / -1 traps are observable) are always kept. Returns true on
/// change.
bool runDeadCodeElimination(Function &F);

/// Runs DCE over every non-external function.
bool runDeadCodeElimination(Module &M);

} // namespace impact

#endif // IMPACT_OPT_DEADCODEELIMINATION_H

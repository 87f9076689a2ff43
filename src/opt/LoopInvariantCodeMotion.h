//===- opt/LoopInvariantCodeMotion.h - Hoist invariants out of loops ----------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef IMPACT_OPT_LOOPINVARIANTCODEMOTION_H
#define IMPACT_OPT_LOOPINVARIANTCODEMOTION_H

#include "ir/Ir.h"

namespace impact {

/// Loop-invariant code motion over the shared loop nest
/// (analysis/LoopInfo.h) and liveness (analysis/Dataflow.h). An
/// instruction hoists from a reducible loop into its preheader when
///  - its opcode is pure and cannot trap (moves, constants, addresses,
///    arithmetic except div/rem; never loads, stores, or calls),
///  - its operands have no definition inside the loop (including by way
///    of earlier hoists this round),
///  - its destination has exactly one definition inside the loop, and
///  - its destination is not live into the loop header — so no path can
///    observe the value the register held before the loop.
/// Together these make the hoist speculation-safe without a dominance
/// check: the instruction computes the same value on every iteration and
/// a preheader execution on a zero-trip loop is unobservable.
///
/// The preheader is the unique jump-terminated predecessor outside the
/// loop when one exists; otherwise a fresh block is spliced onto the
/// header's outside edges (for a header at the function entry, the entry
/// block itself becomes the preheader and the old body moves to a new
/// block). This is the post-inline cleanup the paper's thesis leans on:
/// inline expansion plants callee setup code inside caller loops, and
/// this pass lifts it back out. Returns true on change.
bool runLoopInvariantCodeMotion(Function &F);

/// Runs LICM over every non-external function.
bool runLoopInvariantCodeMotion(Module &M);

} // namespace impact

#endif // IMPACT_OPT_LOOPINVARIANTCODEMOTION_H

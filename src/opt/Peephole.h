//===- opt/Peephole.h - Algebraic identities and strength reduction -----------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef IMPACT_OPT_PEEPHOLE_H
#define IMPACT_OPT_PEEPHOLE_H

#include "ir/Ir.h"

namespace impact {

/// Local pattern rewrites over each block, tracking known constants and
/// active copies from the block top:
///  - algebraic identities: x+0, x-0, x*1, x/1, x<<0, x>>0, x&-1, x|0,
///    x^0 become moves; x*0, x&0, x%1 become constants; x|-1 becomes -1,
///  - same-operand forms: x-x, x^x, x!=x, x<x, x>x become 0; x&x, x|x
///    become moves; x==x, x<=x, x>=x become 1,
///  - strength reduction: multiply by a power-of-two constant becomes a
///    shift (exact under the IL's wrapping two's-complement arithmetic),
///  - redundant moves: a move that re-establishes an already-active copy
///    (or copies a register onto itself) is dropped.
/// All rewrites are exact for every operand value — trapping operations
/// (div/rem by a possibly-zero divisor) are never touched.
/// Returns true on change.
bool runPeephole(Function &F);

/// Runs the peephole pass over every non-external function.
bool runPeephole(Module &M);

} // namespace impact

#endif // IMPACT_OPT_PEEPHOLE_H

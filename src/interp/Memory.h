//===- interp/Memory.h - Flat word-addressed memory -------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter's address space. Memory is word-addressed (one int64 per
/// address) and split into disjoint segments (see ir/Ir.h): globals from
/// kGlobalBase, the control stack from kStackBase, and a bump-allocated
/// heap from kHeapBase. Loads/stores outside live segments set a sticky
/// trap instead of throwing; the interpreter polls the trap flag.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_INTERP_MEMORY_H
#define IMPACT_INTERP_MEMORY_H

#include "ir/Ir.h"

#include <string>
#include <vector>

namespace impact {

class Memory {
public:
  /// Initializes segments from a flattened global image (see
  /// flattenGlobalImage); \p StackWords bounds the control stack
  /// (overflowing it is the paper's "control stack explosion" hazard). The
  /// stack segment is allocated lazily, grown geometrically up to
  /// \p StackWords as frames push, so a short run never pays for
  /// zero-filling the full stack budget up front. This is observably
  /// identical to eager allocation: every pushed frame is zeroed, loads and
  /// stores are bounds-checked against StackTop, and overflow is checked
  /// against the limit.
  Memory(std::vector<int64_t> GlobalImage, int64_t StackWords);

  int64_t load(int64_t Addr);
  void store(int64_t Addr, int64_t Value);

  /// Reserves \p Words on the stack; returns false on stack overflow (the
  /// trap is set).
  bool growStack(int64_t Words);
  void shrinkStack(int64_t Words);
  /// Current stack pointer as a word address (frames grow upward).
  int64_t getStackPointer() const { return kStackBase + StackTop; }
  int64_t getStackWordsInUse() const { return StackTop; }
  int64_t getPeakStackWords() const { return PeakStack; }

  /// Bump-allocates \p Words zeroed heap words; returns their base address,
  /// or 0 when the heap limit is exceeded (trap set).
  int64_t allocateHeap(int64_t Words);

  bool hasTrapped() const { return Trapped; }
  const std::string &getTrapMessage() const { return TrapMessage; }
  void trap(std::string Message);

private:
  std::vector<int64_t> GlobalSeg;
  std::vector<int64_t> StackSeg;
  std::vector<int64_t> HeapSeg;
  /// Hard stack budget; StackSeg.size() lags behind it until frames push
  /// that deep.
  int64_t StackLimitWords = 0;
  int64_t StackTop = 0;
  int64_t PeakStack = 0;
  int64_t HeapTop = 0;
  int64_t HeapLimitWords;
  bool Trapped = false;
  std::string TrapMessage;
};

/// Lays out \p M's globals as the initial global segment: each global's
/// initializer at its address, the rest zero. The walker and the bytecode
/// compiler both build their Memory from this image.
std::vector<int64_t> flattenGlobalImage(const Module &M);

} // namespace impact

#endif // IMPACT_INTERP_MEMORY_H

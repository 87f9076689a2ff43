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
/// Both engines call load, store, growStack and shrinkStack on every
/// memory instruction, call and return, so their in-bounds paths are
/// inline here; traps and segment growth stay out of line.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_INTERP_MEMORY_H
#define IMPACT_INTERP_MEMORY_H

#include "ir/Ir.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace impact {

/// A module's initial global segment: its size in words and its nonzero
/// words; every other word starts zero. The suite's segments are almost all
/// zero (lex has 29 nonzero words out of 135,595), so a run copies only
/// the initializers.
struct GlobalImage {
  struct Word {
    int64_t Offset; // from kGlobalBase
    int64_t Value;
  };
  int64_t Words = 0;
  /// In ascending offset order.
  std::vector<Word> Nonzero;
};

class Memory {
public:
  /// Initializes segments from \p Image (see flattenGlobalImage). The
  /// global segment lives on anonymous pages that are zero at rest: a run
  /// writes the initializers, faults in only the pages it touches, and on
  /// release zeroes the pages it wrote, so the next run on the same thread
  /// reuses them without faulting them in again (each thread keeps one
  /// such mapping, with at most kMaxResidentPages written pages resident).
  /// \p StackWords bounds the control stack
  /// (overflowing it is the paper's "control stack explosion" hazard). The
  /// stack segment is allocated lazily, grown geometrically up to
  /// \p StackWords as frames push, so a short run never pays for
  /// zero-filling the full stack budget up front. This is observably
  /// identical to eager allocation: every pushed frame is zeroed, loads and
  /// stores are bounds-checked against StackTop, and overflow is checked
  /// against the limit.
  Memory(const GlobalImage &Image, int64_t StackWords);
  ~Memory();

  Memory(const Memory &) = delete;
  Memory &operator=(const Memory &) = delete;

  /// Words per 4 KiB page, the unit in which written global words are
  /// tracked and zeroed.
  static constexpr uint64_t kPageWords = 512;
  /// Written pages a thread's cached global mapping may keep resident
  /// between runs; past this it hands them all back to the kernel.
  static constexpr unsigned kMaxResidentPages = 64;

  int64_t load(int64_t Addr) {
    if (int64_t *W = lookup(Addr))
      return *W;
    return trapLoad(Addr);
  }

  void store(int64_t Addr, int64_t Value) {
    uint64_t A = static_cast<uint64_t>(Addr);
    if (uint64_t G = A - static_cast<uint64_t>(kGlobalBase); G < GlobalWords) {
      Globals.Pages[G] = Value;
      Written[G / kPageWords] = 1;
    } else if (int64_t *W = lookup(Addr)) {
      *W = Value;
    } else {
      trapStore(Addr);
    }
  }

  /// Reserves \p Words on the stack; returns false on stack overflow (the
  /// trap is set).
  bool growStack(int64_t Words) {
    int64_t NewTop = StackTop + Words;
    if (NewTop > static_cast<int64_t>(StackSeg.size()))
      return growStackSegment(Words);
    // Zero the newly exposed frame so locals start deterministic.
    std::fill(StackSeg.data() + StackTop, StackSeg.data() + NewTop, 0);
    StackTop = NewTop;
    PeakStack = std::max(PeakStack, NewTop);
    return true;
  }

  void shrinkStack(int64_t Words) {
    StackTop -= Words;
    if (StackTop < 0)
      trapStackUnderflow();
  }

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
  /// The live word at \p Addr, or null outside every segment.
  int64_t *lookup(int64_t Addr) {
    uint64_t A = static_cast<uint64_t>(Addr);
    if (uint64_t G = A - static_cast<uint64_t>(kGlobalBase); G < GlobalWords)
      return Globals.Pages + G;
    if (uint64_t S = A - static_cast<uint64_t>(kStackBase);
        S < static_cast<uint64_t>(StackTop))
      return StackSeg.data() + S;
    if (uint64_t H = A - static_cast<uint64_t>(kHeapBase); H < HeapSeg.size())
      return HeapSeg.data() + H;
    return nullptr;
  }

  int64_t trapLoad(int64_t Addr);
  void trapStore(int64_t Addr);
  bool growStackSegment(int64_t Words);
  void trapStackUnderflow();

  /// An anonymous mapping that backs global segments, every word zero at
  /// rest. Resident marks the pages written since the mapping was last
  /// handed back to the kernel.
  struct GlobalMapping {
    int64_t *Pages = nullptr;
    uint64_t Words = 0; // a whole number of pages
    std::vector<uint8_t> Resident;
    unsigned NumResident = 0;
  };
  /// The calling thread's cached mapping (Pages null when none is cached).
  static GlobalMapping &getThreadMapping();

  /// The first GlobalWords words of Globals are the segment; Written has
  /// one byte per page of it, set by every write.
  GlobalMapping Globals;
  uint64_t GlobalWords = 0;
  std::vector<uint8_t> Written;
  std::vector<int64_t> StackSeg;
  /// Exactly the allocated heap words.
  std::vector<int64_t> HeapSeg;
  /// Hard stack budget; StackSeg.size() lags behind it until frames push
  /// that deep.
  int64_t StackLimitWords = 0;
  int64_t StackTop = 0;
  int64_t PeakStack = 0;
  int64_t HeapLimitWords;
  bool Trapped = false;
  std::string TrapMessage;
};

/// Lays out \p M's globals as the initial global segment: each global's
/// initializer at its address, the rest zero. The walker and the bytecode
/// compiler both build their Memory from this image.
GlobalImage flattenGlobalImage(const Module &M);

} // namespace impact

#endif // IMPACT_INTERP_MEMORY_H

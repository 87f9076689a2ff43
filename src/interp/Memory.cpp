//===- interp/Memory.cpp ------------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Memory.h"

#include <algorithm>

using namespace impact;

namespace {
constexpr int64_t kDefaultHeapLimitWords = 1ll << 24; // 16M words
} // namespace

std::vector<int64_t> impact::flattenGlobalImage(const Module &M) {
  std::vector<int64_t> Image(static_cast<size_t>(M.getGlobalSegmentSize()), 0);
  size_t Cursor = 0;
  for (const Global &G : M.Globals) {
    std::copy(G.Init.begin(), G.Init.end(), Image.begin() + Cursor);
    Cursor += static_cast<size_t>(G.Size);
  }
  return Image;
}

Memory::Memory(std::vector<int64_t> GlobalImage, int64_t StackWords)
    : GlobalSeg(std::move(GlobalImage)), StackLimitWords(StackWords),
      HeapLimitWords(kDefaultHeapLimitWords) {
  // Lazy stack: growStack materializes it on demand. A typical profiled
  // run peaks at a few hundred words; eagerly zero-filling the multi-MB
  // default budget per run would dwarf the run itself.
}

void Memory::trap(std::string Message) {
  if (Trapped)
    return; // keep the first trap
  Trapped = true;
  TrapMessage = std::move(Message);
}

int64_t Memory::load(int64_t Addr) {
  if (Addr >= kGlobalBase && Addr < kGlobalBase + static_cast<int64_t>(
                                                      GlobalSeg.size()))
    return GlobalSeg[static_cast<size_t>(Addr - kGlobalBase)];
  if (Addr >= kStackBase && Addr < kStackBase + StackTop)
    return StackSeg[static_cast<size_t>(Addr - kStackBase)];
  if (Addr >= kHeapBase && Addr < kHeapBase + HeapTop)
    return HeapSeg[static_cast<size_t>(Addr - kHeapBase)];
  trap("load from invalid address " + std::to_string(Addr));
  return 0;
}

void Memory::store(int64_t Addr, int64_t Value) {
  if (Addr >= kGlobalBase &&
      Addr < kGlobalBase + static_cast<int64_t>(GlobalSeg.size())) {
    GlobalSeg[static_cast<size_t>(Addr - kGlobalBase)] = Value;
    return;
  }
  if (Addr >= kStackBase && Addr < kStackBase + StackTop) {
    StackSeg[static_cast<size_t>(Addr - kStackBase)] = Value;
    return;
  }
  if (Addr >= kHeapBase && Addr < kHeapBase + HeapTop) {
    HeapSeg[static_cast<size_t>(Addr - kHeapBase)] = Value;
    return;
  }
  trap("store to invalid address " + std::to_string(Addr));
}

bool Memory::growStack(int64_t Words) {
  if (StackTop + Words > StackLimitWords) {
    trap("control stack overflow (" + std::to_string(StackTop + Words) +
         " words needed, limit " + std::to_string(StackLimitWords) + ")");
    return false;
  }
  // Materialize the lazily-allocated stack in geometric steps; resize
  // zero-fills the new tail, so the loop below only re-zeroes words dirtied
  // by previously popped frames.
  if (StackTop + Words > static_cast<int64_t>(StackSeg.size()))
    StackSeg.resize(static_cast<size_t>(
        std::min(StackLimitWords,
                 std::max<int64_t>(StackTop + Words,
                                   static_cast<int64_t>(StackSeg.size()) * 2))));
  // Zero the newly exposed frame so locals start deterministic.
  for (int64_t I = StackTop; I != StackTop + Words; ++I)
    StackSeg[static_cast<size_t>(I)] = 0;
  StackTop += Words;
  if (StackTop > PeakStack)
    PeakStack = StackTop;
  return true;
}

void Memory::shrinkStack(int64_t Words) {
  StackTop -= Words;
  if (StackTop < 0) {
    trap("control stack underflow");
    StackTop = 0;
  }
}

int64_t Memory::allocateHeap(int64_t Words) {
  if (Words < 0 || HeapTop + Words > HeapLimitWords) {
    trap("heap exhausted");
    return 0;
  }
  int64_t Base = kHeapBase + HeapTop;
  HeapTop += Words;
  HeapSeg.resize(static_cast<size_t>(HeapTop), 0);
  return Base;
}

//===- interp/Memory.cpp ------------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Memory.h"

#include <new>

#include <sys/mman.h>

using namespace impact;

namespace {
constexpr int64_t kDefaultHeapLimitWords = 1ll << 24; // 16M words
} // namespace

GlobalImage impact::flattenGlobalImage(const Module &M) {
  GlobalImage Image;
  Image.Words = M.getGlobalSegmentSize();
  int64_t Cursor = 0;
  for (const Global &G : M.Globals) {
    for (size_t I = 0; I != G.Init.size(); ++I)
      if (G.Init[I] != 0)
        Image.Nonzero.push_back({Cursor + static_cast<int64_t>(I), G.Init[I]});
    Cursor += G.Size;
  }
  return Image;
}

namespace {

void unmapGlobals(int64_t *Pages, uint64_t Words) {
  if (Pages)
    munmap(Pages, Words * sizeof(int64_t));
}

} // namespace

Memory::GlobalMapping &Memory::getThreadMapping() {
  // Unmapped when the thread exits.
  struct Holder {
    GlobalMapping Mapping;
    ~Holder() { unmapGlobals(Mapping.Pages, Mapping.Words); }
  };
  thread_local Holder Cached;
  return Cached.Mapping;
}

Memory::Memory(const GlobalImage &Image, int64_t StackWords)
    : GlobalWords(static_cast<uint64_t>(Image.Words)),
      StackLimitWords(StackWords), HeapLimitWords(kDefaultHeapLimitWords) {
  // Fresh anonymous pages read as zero and cost nothing until touched, so
  // only the initializers are written; a mapping an earlier run on this
  // thread used is zero again and already faulted in where it was
  // written. The stack is lazy too: growStack materializes it on demand.
  // A typical profiled run peaks at a few hundred stack words and touches
  // a few dozen global pages; copying the whole image or zero-filling the
  // multi-MB default stack budget per run would dwarf the run itself.
  if (GlobalWords == 0)
    return;
  GlobalMapping &Cached = getThreadMapping();
  Written.assign((GlobalWords + kPageWords - 1) / kPageWords, 0);
  if (Cached.Words >= GlobalWords) {
    Globals = std::move(Cached);
    Cached = GlobalMapping();
  } else {
    std::vector<uint8_t> Resident(Written.size(), 0);
    uint64_t Words = Written.size() * kPageWords;
    void *Pages = mmap(nullptr, Words * sizeof(int64_t),
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
    if (Pages == MAP_FAILED)
      throw std::bad_alloc();
    Globals.Pages = static_cast<int64_t *>(Pages);
    Globals.Words = Words;
    Globals.Resident = std::move(Resident);
  }
  for (const GlobalImage::Word &W : Image.Nonzero)
    store(kGlobalBase + W.Offset, W.Value);
}

Memory::~Memory() {
  if (!Globals.Pages)
    return;
  // Zero what this run wrote, then keep the mapping for the thread's next
  // run, unless the thread already keeps one at least as large.
  for (size_t P = 0; P != Written.size(); ++P) {
    if (!Written[P])
      continue;
    std::fill_n(Globals.Pages + P * kPageWords, kPageWords, 0);
    if (!Globals.Resident[P]) {
      Globals.Resident[P] = 1;
      ++Globals.NumResident;
    }
  }
  if (Globals.NumResident > kMaxResidentPages) {
    madvise(Globals.Pages, Globals.Words * sizeof(int64_t), MADV_DONTNEED);
    std::fill(Globals.Resident.begin(), Globals.Resident.end(), 0);
    Globals.NumResident = 0;
  }
  GlobalMapping &Cached = getThreadMapping();
  if (Cached.Words >= Globals.Words) {
    unmapGlobals(Globals.Pages, Globals.Words);
    return;
  }
  unmapGlobals(Cached.Pages, Cached.Words);
  Cached = std::move(Globals);
}

void Memory::trap(std::string Message) {
  if (Trapped)
    return; // keep the first trap
  Trapped = true;
  TrapMessage = std::move(Message);
}

int64_t Memory::trapLoad(int64_t Addr) {
  trap("load from invalid address " + std::to_string(Addr));
  return 0;
}

void Memory::trapStore(int64_t Addr) {
  trap("store to invalid address " + std::to_string(Addr));
}

bool Memory::growStackSegment(int64_t Words) {
  if (StackTop + Words > StackLimitWords) {
    trap("control stack overflow (" + std::to_string(StackTop + Words) +
         " words needed, limit " + std::to_string(StackLimitWords) + ")");
    return false;
  }
  // Materialize the lazily-allocated stack in geometric steps; resize
  // zero-fills the new tail, so growStack only re-zeroes words dirtied by
  // previously popped frames.
  StackSeg.resize(static_cast<size_t>(
      std::min(StackLimitWords,
               std::max<int64_t>(StackTop + Words,
                                 static_cast<int64_t>(StackSeg.size()) * 2))));
  return growStack(Words);
}

void Memory::trapStackUnderflow() {
  trap("control stack underflow");
  StackTop = 0;
}

int64_t Memory::allocateHeap(int64_t Words) {
  int64_t HeapTop = static_cast<int64_t>(HeapSeg.size());
  if (Words < 0 || HeapTop + Words > HeapLimitWords) {
    trap("heap exhausted");
    return 0;
  }
  HeapSeg.resize(static_cast<size_t>(HeapTop + Words), 0);
  return kHeapBase + HeapTop;
}

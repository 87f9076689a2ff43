//===- tests/MemoryTests.cpp - flat memory unit tests -------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Memory.h"

#include "interp/Interpreter.h"

#include <gtest/gtest.h>

using namespace impact;

namespace {

Module moduleWithGlobals() {
  Module M;
  M.addGlobal("a", 2, {11, 22});
  M.addGlobal("b", 3, {33});
  return M;
}

Memory makeMemory(int64_t StackWords) {
  return Memory(flattenGlobalImage(moduleWithGlobals()), StackWords);
}

TEST(Memory, GlobalsInitialized) {
  Memory Mem = makeMemory(64);
  EXPECT_EQ(Mem.load(kGlobalBase + 0), 11);
  EXPECT_EQ(Mem.load(kGlobalBase + 1), 22);
  EXPECT_EQ(Mem.load(kGlobalBase + 2), 33);
  EXPECT_EQ(Mem.load(kGlobalBase + 3), 0) << "tail zero-filled";
  EXPECT_FALSE(Mem.hasTrapped());
}

TEST(Memory, GlobalStoreRoundTrips) {
  Memory Mem = makeMemory(64);
  Mem.store(kGlobalBase + 4, -5);
  EXPECT_EQ(Mem.load(kGlobalBase + 4), -5);
}

TEST(Memory, OutOfSegmentAccessTraps) {
  Memory Mem = makeMemory(64);
  Mem.load(kGlobalBase + 5); // segment has 5 words (indices 0..4)
  EXPECT_TRUE(Mem.hasTrapped());
}

TEST(Memory, NullAccessTraps) {
  Memory Mem = makeMemory(64);
  Mem.store(kNullAddr, 1);
  EXPECT_TRUE(Mem.hasTrapped());
  EXPECT_NE(Mem.getTrapMessage().find("invalid address"),
            std::string::npos);
}

TEST(Memory, FirstTrapMessageSticks) {
  Memory Mem = makeMemory(64);
  Mem.load(1);
  std::string First = Mem.getTrapMessage();
  Mem.load(2);
  EXPECT_EQ(Mem.getTrapMessage(), First);
}

TEST(Memory, SparseImageListsOnlyNonzeroWords) {
  Module M = moduleWithGlobals();
  M.addGlobal("c", 4, {0, 44, 0});
  GlobalImage Image = flattenGlobalImage(M);
  EXPECT_EQ(Image.Words, 9);
  ASSERT_EQ(Image.Nonzero.size(), 4u);
  EXPECT_EQ(Image.Nonzero[3].Offset, 6);
  EXPECT_EQ(Image.Nonzero[3].Value, 44);
  Memory Mem(Image, 64);
  const int64_t Want[] = {11, 22, 33, 0, 0, 0, 44, 0, 0};
  for (int64_t I = 0; I != 9; ++I)
    EXPECT_EQ(Mem.load(kGlobalBase + I), Want[I]) << "word " << I;
  EXPECT_FALSE(Mem.hasTrapped());
}

TEST(Memory, LastGlobalWordLoadsAndStores) {
  // A segment whose last word sits on a page of its own.
  const int64_t Words = 8 * Memory::kPageWords + 3;
  Module M;
  M.addGlobal("big", Words, {7});
  Memory Mem(flattenGlobalImage(M), 64);
  const int64_t Last = kGlobalBase + Words - 1;
  EXPECT_EQ(Mem.load(Last), 0);
  Mem.store(Last, -9);
  EXPECT_EQ(Mem.load(Last), -9);
  EXPECT_EQ(Mem.load(kGlobalBase), 7);
  EXPECT_FALSE(Mem.hasTrapped());
  Mem.store(Last + 1, 1);
  EXPECT_TRUE(Mem.hasTrapped());
  EXPECT_EQ(Mem.getTrapMessage(),
            "store to invalid address " + std::to_string(Last + 1));
}

TEST(Memory, OnePastGlobalSegmentTrapsWithAddress) {
  Memory Mem = makeMemory(64);
  EXPECT_EQ(Mem.load(kGlobalBase + 5), 0);
  EXPECT_EQ(Mem.getTrapMessage(),
            "load from invalid address " + std::to_string(kGlobalBase + 5));
}

TEST(Memory, LaterRunsOnAThreadStartFromTheImage) {
  // Each Memory reuses the pages the thread's previous one released; none
  // may see a word an earlier run wrote. The first run writes fewer pages
  // than a thread keeps resident (they are zeroed in place), then more
  // (they go back to the kernel); the smaller image reuses the larger
  // mapping.
  const int64_t Words = 4 * Memory::kMaxResidentPages * Memory::kPageWords;
  Module Big;
  Big.addGlobal("big", Words, {5, 0, 6});
  GlobalImage BigImage = flattenGlobalImage(Big);
  GlobalImage SmallImage = flattenGlobalImage(moduleWithGlobals());
  const int64_t FewPages = Memory::kMaxResidentPages / 4 * Memory::kPageWords;
  for (int64_t Written : {FewPages, Words}) {
    {
      Memory Mem(BigImage, 64);
      for (int64_t I = 0; I < Written; ++I)
        Mem.store(kGlobalBase + I, I + 100);
    }
    {
      Memory Mem(BigImage, 64);
      EXPECT_EQ(Mem.load(kGlobalBase), 5);
      EXPECT_EQ(Mem.load(kGlobalBase + 2), 6);
      for (int64_t I = 3; I < Words; ++I)
        ASSERT_EQ(Mem.load(kGlobalBase + I), 0) << "word " << I;
      Mem.store(kGlobalBase + 7, 8);
    }
    {
      Memory Mem(SmallImage, 64);
      const int64_t Want[] = {11, 22, 33, 0, 0};
      for (int64_t I = 0; I != 5; ++I)
        EXPECT_EQ(Mem.load(kGlobalBase + I), Want[I]) << "word " << I;
      Mem.load(kGlobalBase + 5);
      EXPECT_TRUE(Mem.hasTrapped()) << "the mapping is larger than the segment";
    }
  }
}

TEST(Memory, EmptyGlobalSegmentTraps) {
  Memory Mem(GlobalImage(), 64);
  Mem.load(kGlobalBase);
  EXPECT_TRUE(Mem.hasTrapped());
}

TEST(Memory, StackGrowShrinkTracksPeak) {
  Memory Mem = makeMemory(100);
  EXPECT_TRUE(Mem.growStack(40));
  EXPECT_TRUE(Mem.growStack(30));
  EXPECT_EQ(Mem.getStackWordsInUse(), 70);
  Mem.shrinkStack(30);
  EXPECT_EQ(Mem.getStackWordsInUse(), 40);
  EXPECT_EQ(Mem.getPeakStackWords(), 70);
}

TEST(Memory, StackOverflowTrapsAndFails) {
  Memory Mem = makeMemory(50);
  EXPECT_TRUE(Mem.growStack(50));
  EXPECT_FALSE(Mem.growStack(1));
  EXPECT_TRUE(Mem.hasTrapped());
  EXPECT_NE(Mem.getTrapMessage().find("stack overflow"),
            std::string::npos);
}

TEST(Memory, StackFramesAreZeroedOnGrow) {
  Memory Mem = makeMemory(100);
  Mem.growStack(10);
  Mem.store(kStackBase + 5, 99);
  Mem.shrinkStack(10);
  Mem.growStack(10); // the new frame must not see the stale 99
  EXPECT_EQ(Mem.load(kStackBase + 5), 0);
}

TEST(Memory, StackFramesAreZeroedAcrossGeometricGrowth) {
  Memory Mem = makeMemory(1000);
  ASSERT_TRUE(Mem.growStack(8)); // materializes 8 words
  for (int64_t I = 0; I != 8; ++I)
    Mem.store(kStackBase + I, 100 + I);
  Mem.shrinkStack(8);
  // 3 + 9 words crosses the materialized size, so the segment doubles;
  // the popped frame's dirty words must read back zero all the same.
  ASSERT_TRUE(Mem.growStack(3));
  ASSERT_TRUE(Mem.growStack(9));
  for (int64_t I = 0; I != 12; ++I) {
    EXPECT_EQ(Mem.load(kStackBase + I), 0) << "word " << I;
    Mem.store(kStackBase + I, -1);
  }
  Mem.shrinkStack(12);
  ASSERT_TRUE(Mem.growStack(17)); // past the doubled size: grows again
  for (int64_t I = 0; I != 17; ++I)
    EXPECT_EQ(Mem.load(kStackBase + I), 0) << "word " << I;
  EXPECT_EQ(Mem.getPeakStackWords(), 17);
  EXPECT_FALSE(Mem.hasTrapped());
}

TEST(Memory, DefaultStackBudgetGrowsToExactLimit) {
  const int64_t Limit = RunOptions().StackWords;
  ASSERT_EQ(Limit, 1 << 22);
  Memory Mem = makeMemory(Limit);
  ASSERT_TRUE(Mem.growStack(Limit - 1));
  ASSERT_TRUE(Mem.growStack(1));
  EXPECT_EQ(Mem.load(kStackBase + Limit - 1), 0);
  EXPECT_EQ(Mem.getPeakStackWords(), Limit);
  EXPECT_FALSE(Mem.growStack(1));
  EXPECT_TRUE(Mem.hasTrapped());
  EXPECT_EQ(Mem.getTrapMessage(),
            "control stack overflow (4194305 words needed, limit 4194304)");
  EXPECT_EQ(Mem.getStackWordsInUse(), Limit);
}

TEST(Memory, StackAccessBeyondTopTraps) {
  Memory Mem = makeMemory(100);
  Mem.growStack(10);
  Mem.load(kStackBase + 10);
  EXPECT_TRUE(Mem.hasTrapped());
}

TEST(Memory, HeapBumpAllocationZeroed) {
  Memory Mem = makeMemory(64);
  int64_t A = Mem.allocateHeap(4);
  int64_t B = Mem.allocateHeap(4);
  EXPECT_EQ(A, kHeapBase);
  EXPECT_EQ(B, kHeapBase + 4);
  EXPECT_EQ(Mem.load(B + 3), 0);
  Mem.store(A + 1, 7);
  EXPECT_EQ(Mem.load(A + 1), 7);
  EXPECT_FALSE(Mem.hasTrapped());
}

TEST(Memory, NegativeHeapRequestTraps) {
  Memory Mem = makeMemory(64);
  EXPECT_EQ(Mem.allocateHeap(-3), 0);
  EXPECT_TRUE(Mem.hasTrapped());
}

TEST(Memory, FunctionAddressesAreNotMemory) {
  Memory Mem = makeMemory(64);
  Mem.load(encodeFuncAddr(0));
  EXPECT_TRUE(Mem.hasTrapped());
}

} // namespace

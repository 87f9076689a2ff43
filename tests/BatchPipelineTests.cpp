//===- tests/BatchPipelineTests.cpp - batch pipeline unit/smoke tests ---------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the batch-pipeline building blocks — the work-stealing
/// ThreadPool and the sharded FunctionDefinitionCache — plus smoke tests
/// that runBatchPipeline agrees with the serial runPipeline on the shared
/// test programs. The exhaustive randomized equivalence check lives in
/// ParallelDeterminismTests.cpp.
///
//===----------------------------------------------------------------------===//

#include "driver/BatchPipeline.h"
#include "driver/Pipeline.h"
#include "ir/IrPrinter.h"
#include "opt/PassManager.h"
#include "support/ThreadPool.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace impact;
using test::compileOk;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, ExecutesEveryTask) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  for (int I = 0; I != 200; ++I)
    Pool.submit([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 200);
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1);
  for (int I = 0; I != 10; ++I)
    Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 11);
}

TEST(ThreadPool, WaitWithNoTasksReturns) {
  ThreadPool Pool(2);
  Pool.wait(); // must not hang
}

TEST(ThreadPool, SubmitFromWithinTask) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  Pool.submit([&] {
    Count.fetch_add(1);
    for (int I = 0; I != 5; ++I)
      Pool.submit([&Count] { Count.fetch_add(1); });
  });
  Pool.wait();
  EXPECT_EQ(Count.load(), 6);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(3);
    for (int I = 0; I != 50; ++I)
      Pool.submit([&Count] { Count.fetch_add(1); });
  }
  EXPECT_EQ(Count.load(), 50);
}

TEST(ThreadPool, ThreadCounts) {
  EXPECT_GE(ThreadPool::getDefaultThreadCount(), 1u);
  ThreadPool Explicit(3);
  EXPECT_EQ(Explicit.getThreadCount(), 3u);
  ThreadPool Default(0);
  EXPECT_EQ(Default.getThreadCount(), ThreadPool::getDefaultThreadCount());
}

//===----------------------------------------------------------------------===//
// FunctionDefinitionCache
//===----------------------------------------------------------------------===//

/// The first non-external function of the call-heavy test program.
Function &firstDefined(Module &M) {
  for (Function &F : M.Funcs)
    if (!F.IsExternal)
      return F;
  ADD_FAILURE() << "no defined function";
  return M.Funcs.front();
}

TEST(FunctionCache, KeyIgnoresFunctionName) {
  Module M = compileOk(test::kCallHeavyProgram);
  Function &F = firstDefined(M);
  OptOptions Opts;
  std::string Key = FunctionDefinitionCache::makeKey(F, Opts);
  std::string SavedName = F.Name;
  F.Name = "renamed_function";
  EXPECT_EQ(FunctionDefinitionCache::makeKey(F, Opts), Key);
  F.Name = SavedName;
}

TEST(FunctionCache, KeyDependsOnOptions) {
  Module M = compileOk(test::kCallHeavyProgram);
  Function &F = firstDefined(M);
  OptOptions A, B;
  B.DeadCodeElimination = false;
  std::string KeyA = FunctionDefinitionCache::makeKey(F, A);
  EXPECT_NE(FunctionDefinitionCache::makeKey(F, B), KeyA);
}

TEST(FunctionCache, KeyDependsOnBody) {
  Module M = compileOk(test::kCallHeavyProgram);
  Function &F = firstDefined(M);
  OptOptions Opts;
  std::string Key = FunctionDefinitionCache::makeKey(F, Opts);
  Module M2 = compileOk(test::kPointerCallProgram);
  Function &G = firstDefined(M2);
  EXPECT_NE(FunctionDefinitionCache::makeKey(G, Opts), Key);
}

TEST(FunctionCache, KeySeparatesSelfCallFromIdenticalWrapper) {
  // Site ids restart per module, so the collision is cross-module (two
  // batch jobs sharing the cache): rec (f0) tail-calls itself from its
  // module's first call site; wrap calls helper (also f0) from *its*
  // module's first call site, printing to the very same bytes (callee id,
  // registers, site id). Tail-recursion elimination rewrites only the
  // self-call, so the two bodies optimize differently and must never
  // share a cache key.
  Module MRec = compileOk("int rec(int n) { if (n == 0) return 0;"
                          "return rec(n - 1); }"
                          "int main() { return rec(3); }");
  Module MWrap = compileOk("int helper(int n) { return n; }"
                           "int wrap(int n) { if (n == 0) return 0;"
                           "return helper(n - 1); }"
                           "int main() { return wrap(3); }");
  Function &Rec = MRec.getFunction(MRec.findFunction("rec"));
  Function &Wrap = MWrap.getFunction(MWrap.findFunction("wrap"));

  // Premise: the printed bodies really are byte-identical.
  ASSERT_EQ(Rec.Blocks.size(), Wrap.Blocks.size());
  for (size_t B = 0; B != Rec.Blocks.size(); ++B) {
    ASSERT_EQ(Rec.Blocks[B].size(), Wrap.Blocks[B].size());
    for (size_t I = 0; I != Rec.Blocks[B].size(); ++I)
      ASSERT_EQ(printInstr(Rec.Blocks[B].Instrs[I], &Rec),
                printInstr(Wrap.Blocks[B].Instrs[I], &Wrap));
  }

  OptOptions Opts;
  EXPECT_NE(FunctionDefinitionCache::makeKey(Rec, Opts),
            FunctionDefinitionCache::makeKey(Wrap, Opts));
  Opts.TailRecursionElimination = true;
  EXPECT_NE(FunctionDefinitionCache::makeKey(Rec, Opts),
            FunctionDefinitionCache::makeKey(Wrap, Opts));
}

TEST(FunctionCache, HitSplicesIdenticalBody) {
  OptOptions Opts;
  FunctionDefinitionCache Cache;

  // Optimize one copy the normal way and insert it.
  Module M1 = compileOk(test::kCallHeavyProgram);
  Function &F1 = firstDefined(M1);
  std::string Key = FunctionDefinitionCache::makeKey(F1, Opts);
  Function Scratch = F1;
  EXPECT_FALSE(Cache.lookup(Key, Scratch)); // cold cache
  runOptimizationPipeline(F1, Opts);
  Cache.insert(Key, F1);

  // A fresh compile must hit and end up bit-identical to re-optimizing.
  Module M2 = compileOk(test::kCallHeavyProgram);
  Function &F2 = firstDefined(M2);
  ASSERT_EQ(FunctionDefinitionCache::makeKey(F2, Opts), Key);
  EXPECT_TRUE(Cache.lookup(Key, F2));
  EXPECT_EQ(printFunction(F2), printFunction(F1));
  EXPECT_EQ(F2.NumRegs, F1.NumRegs);
  EXPECT_EQ(F2.FrameSize, F1.FrameSize);
}

TEST(FunctionCache, StatsAndClear) {
  OptOptions Opts;
  FunctionDefinitionCache Cache;
  Module M = compileOk(test::kCallHeavyProgram);
  Function &F = firstDefined(M);
  std::string Key = FunctionDefinitionCache::makeKey(F, Opts);

  Function Scratch = F;
  EXPECT_FALSE(Cache.lookup(Key, Scratch));
  runOptimizationPipeline(F, Opts);
  Cache.insert(Key, F);
  Function Scratch2 = firstDefined(M);
  EXPECT_TRUE(Cache.lookup(Key, Scratch2));

  FunctionCacheStats S = Cache.getStats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.InstrsServed, F.size());
  EXPECT_DOUBLE_EQ(S.getHitRate(), 0.5);

  Cache.clear();
  S = Cache.getStats();
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Misses, 0u);
  EXPECT_EQ(S.Entries, 0u);
  Function Scratch3 = firstDefined(M);
  EXPECT_FALSE(Cache.lookup(Key, Scratch3));
}

TEST(FunctionCache, WarmCacheServesEveryBodyBitIdentically) {
  // Two pipeline runs of one program over one cache: the second serves
  // every pre-opt body from the first's entries and must be
  // bit-identical to recomputation.
  std::vector<RunInput> Inputs = {{"abcd", ""}, {"", ""}};
  FunctionDefinitionCache Cache;
  PipelineOptions Options;
  Options.DefCache = &Cache;
  PipelineResult Fresh =
      runPipeline(test::kCallHeavyProgram, "call_heavy", Inputs, Options);
  ASSERT_TRUE(Fresh.Ok) << Fresh.Error;
  FunctionCacheStats Cold = Cache.getStats();
  ASSERT_GT(Cold.Entries, 0u);

  PipelineResult Reused =
      runPipeline(test::kCallHeavyProgram, "call_heavy", Inputs, Options);
  ASSERT_TRUE(Reused.Ok) << Reused.Error;
  EXPECT_EQ(printModule(Reused.FinalModule), printModule(Fresh.FinalModule))
      << "a hit must be bit-identical to recomputation";
  EXPECT_EQ(Reused.OutputsAfter, Fresh.OutputsAfter);
  EXPECT_EQ(Reused.Stats.CacheMisses, 0u)
      << "every body must be served from the cache, not recomputed";
  EXPECT_EQ(Reused.Stats.CacheHits,
            Fresh.Stats.CacheHits + Fresh.Stats.CacheMisses);
  EXPECT_EQ(Cache.getStats().Entries, Cold.Entries);
}

TEST(FunctionCache, DistinctBodiesAllStayResident) {
  // The cache never evicts: every distinct body inserted stays servable.
  FunctionDefinitionCache Cache;
  OptOptions Opts;
  std::vector<std::string> Keys;
  for (int I = 0; I != 40; ++I) {
    Module M = compileOk("int f(int x) { return x + " + std::to_string(I) +
                         "; }\nint main() { return f(1); }");
    Function &F = firstDefined(M);
    Keys.push_back(FunctionDefinitionCache::makeKey(F, Opts));
    Cache.insert(Keys.back(), F);
  }
  EXPECT_EQ(Cache.getStats().Entries, Keys.size());
  Module Probe = compileOk(test::kCallHeavyProgram);
  for (const std::string &Key : Keys) {
    Function Scratch = firstDefined(Probe);
    EXPECT_TRUE(Cache.lookup(Key, Scratch));
  }
}

//===----------------------------------------------------------------------===//
// Batch vs serial smoke tests
//===----------------------------------------------------------------------===//

std::vector<BatchJob> makeTestJobs() {
  const struct {
    const char *Name;
    const char *Source;
  } Programs[] = {
      {"call_heavy", test::kCallHeavyProgram},
      {"recursive", test::kRecursiveProgram},
      {"pointer_call", test::kPointerCallProgram},
  };
  std::vector<BatchJob> Jobs;
  for (const auto &P : Programs) {
    BatchJob Job;
    Job.Name = P.Name;
    Job.Source = P.Source;
    Job.Inputs = {RunInput{"abcdef", ""}, RunInput{"x", ""},
                  RunInput{"", ""}};
    Jobs.push_back(std::move(Job));
  }
  return Jobs;
}

/// Everything observable must match; timing/cache counters are exempt by
/// design (they live in PipelineResult::Stats).
void expectSameResult(const PipelineResult &A, const PipelineResult &B,
                      const std::string &Tag) {
  ASSERT_EQ(A.Ok, B.Ok) << Tag;
  EXPECT_EQ(A.Error, B.Error) << Tag;
  EXPECT_TRUE(A.Before == B.Before) << Tag;
  EXPECT_TRUE(A.After == B.After) << Tag;
  EXPECT_TRUE(A.Inline.Linear == B.Inline.Linear) << Tag;
  EXPECT_TRUE(A.Inline.Plan == B.Inline.Plan) << Tag;
  EXPECT_TRUE(A.Inline.Expansions == B.Inline.Expansions) << Tag;
  EXPECT_EQ(A.Inline.EliminatedFunctions, B.Inline.EliminatedFunctions)
      << Tag;
  EXPECT_EQ(A.Inline.SizeBefore, B.Inline.SizeBefore) << Tag;
  EXPECT_EQ(A.Inline.SizeAfter, B.Inline.SizeAfter) << Tag;
  EXPECT_EQ(A.OutputsBefore, B.OutputsBefore) << Tag;
  EXPECT_EQ(A.OutputsAfter, B.OutputsAfter) << Tag;
  EXPECT_EQ(printModule(A.FinalModule), printModule(B.FinalModule)) << Tag;
}

TEST(BatchPipeline, MatchesSerialPipeline) {
  std::vector<BatchJob> Jobs = makeTestJobs();

  std::vector<PipelineResult> Serial;
  for (const BatchJob &Job : Jobs)
    Serial.push_back(
        runPipeline(Job.Source, Job.Name, Job.Inputs, Job.Options));

  for (unsigned Threads : {1u, 4u}) {
    BatchOptions Options;
    Options.Jobs = Threads;
    BatchResult R = runBatchPipeline(Jobs, Options);
    ASSERT_TRUE(R.allOk()) << "threads=" << Threads;
    ASSERT_EQ(R.Results.size(), Jobs.size());
    for (size_t I = 0; I != Jobs.size(); ++I)
      expectSameResult(Serial[I], R.Results[I],
                       Jobs[I].Name + " threads=" +
                           std::to_string(Threads));
  }
}

TEST(BatchPipeline, CacheDisabledStillMatches) {
  // A batch always memoizes; the uncached reference is the serial
  // runPipeline, which attaches no cache unless asked to.
  std::vector<BatchJob> Jobs = makeTestJobs();
  BatchOptions Cached;
  Cached.Jobs = 2;
  BatchResult A = runBatchPipeline(Jobs, Cached);
  ASSERT_TRUE(A.allOk());
  EXPECT_GT(A.Aggregate.CacheHits + A.Aggregate.CacheMisses, 0u);
  for (size_t I = 0; I != Jobs.size(); ++I) {
    const BatchJob &Job = Jobs[I];
    PipelineResult B =
        runPipeline(Job.Source, Job.Name, Job.Inputs, Job.Options);
    ASSERT_TRUE(B.Ok) << B.Error;
    EXPECT_EQ(B.Stats.CacheHits + B.Stats.CacheMisses, 0u);
    expectSameResult(A.Results[I], B, Job.Name);
  }
}

TEST(BatchPipeline, CachedMatchesUncachedAcrossPassSets) {
  // The cache-key bugfix end to end: ONE external cache is reused across
  // four pass-set configurations of the same programs. If makeKey missed
  // any OptOptions field, a later configuration would splice a body
  // optimized under an earlier one and diverge from its uncached run.
  FunctionDefinitionCache Shared;
  for (const char *Spec : {"fold,jump,copy,dce", "all",
                           "tre,licm", "all,-dce,-licm"}) {
    SCOPED_TRACE(Spec);
    OptOptions Passes;
    std::string Error;
    ASSERT_TRUE(parseOptPasses(Spec, Passes, &Error)) << Error;
    std::vector<BatchJob> Jobs = makeTestJobs();
    for (BatchJob &Job : Jobs) {
      Job.Options.PreOpt = Passes;
      Job.Options.Inline.PostInlineOptimize = true;
      Job.Options.Inline.PostOpt = Passes;
    }
    BatchOptions Cached;
    Cached.Jobs = 4;
    Cached.ExternalCache = &Shared;
    BatchResult A = runBatchPipeline(Jobs, Cached);
    ASSERT_TRUE(A.allOk());
    for (size_t I = 0; I != Jobs.size(); ++I) {
      const BatchJob &Job = Jobs[I];
      PipelineResult B =
          runPipeline(Job.Source, Job.Name, Job.Inputs, Job.Options);
      expectSameResult(A.Results[I], B, std::string(Spec) + " " + Job.Name);
    }
  }
  EXPECT_GT(Shared.getStats().Entries, 0u);
}

TEST(BatchPipeline, AggregateSumsCacheCounters) {
  std::vector<BatchJob> Jobs = makeTestJobs();
  BatchResult R = runBatchPipeline(Jobs);
  ASSERT_TRUE(R.allOk());
  EXPECT_EQ(R.Aggregate.CacheHits + R.Aggregate.CacheMisses,
            R.Cache.Hits + R.Cache.Misses);
  EXPECT_GT(R.Aggregate.CacheMisses, 0u); // cold cache must miss
  EXPECT_GT(R.ThreadsUsed, 0u);
  EXPECT_GE(R.WallSeconds, 0.0);
  EXPECT_GE(R.getCpuSeconds(), 0.0);
}

TEST(BatchPipeline, ExternalCachePersistsAcrossBatches) {
  std::vector<BatchJob> Jobs = makeTestJobs();
  FunctionDefinitionCache Cache;
  BatchOptions Options;
  Options.Jobs = 2;
  Options.ExternalCache = &Cache;

  BatchResult First = runBatchPipeline(Jobs, Options);
  ASSERT_TRUE(First.allOk());
  EXPECT_EQ(First.Aggregate.CacheHits, 0u);

  BatchResult Second = runBatchPipeline(Jobs, Options);
  ASSERT_TRUE(Second.allOk());
  // Every pre-opt body is now served from the first batch's entries.
  EXPECT_EQ(Second.Aggregate.CacheMisses, 0u);
  EXPECT_EQ(Second.Aggregate.CacheHits, First.Aggregate.CacheMisses);
  for (size_t I = 0; I != Jobs.size(); ++I)
    expectSameResult(First.Results[I], Second.Results[I], Jobs[I].Name);
}

TEST(BatchPipeline, FailedJobIsIsolated) {
  std::vector<BatchJob> Jobs = makeTestJobs();
  BatchJob Bad;
  Bad.Name = "broken";
  Bad.Source = "int main( { return }";
  Bad.Inputs = {RunInput{"", ""}};
  Jobs.insert(Jobs.begin() + 1, Bad);

  BatchResult R = runBatchPipeline(Jobs);
  EXPECT_FALSE(R.allOk());
  EXPECT_EQ(R.firstFailure(), 1);
  ASSERT_EQ(R.Results.size(), Jobs.size());
  EXPECT_FALSE(R.Results[1].Ok);
  EXPECT_FALSE(R.Results[1].Error.empty());
  EXPECT_TRUE(R.Results[0].Ok);
  EXPECT_TRUE(R.Results[2].Ok);
  EXPECT_TRUE(R.Results[3].Ok);

  // The failure is quarantined as a structured record, not just a string.
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Unit, "broken");
  EXPECT_EQ(R.Failures[0].Stage, "compile");
  EXPECT_EQ(R.Failures[0].Reason, "diagnostic");
  EXPECT_FALSE(R.Failures[0].Detail.empty());
  EXPECT_EQ(R.Results[1].Failure.Unit, "broken");

  // The report footer names the quarantined unit; a clean batch's report
  // must not mention failures at all.
  std::string Report = renderBatchReport(Jobs, R);
  EXPECT_NE(Report.find("[failed]"), std::string::npos);
  EXPECT_NE(Report.find("broken"), std::string::npos);

  // The surviving jobs are bit-identical to a batch without the bad unit.
  Jobs.erase(Jobs.begin() + 1);
  BatchResult Clean = runBatchPipeline(Jobs);
  ASSERT_TRUE(Clean.allOk());
  EXPECT_TRUE(Clean.Failures.empty());
  EXPECT_EQ(renderBatchReport(Jobs, Clean).find("[failed]"),
            std::string::npos);
  expectSameResult(Clean.Results[0], R.Results[0], "job0");
  expectSameResult(Clean.Results[1], R.Results[2], "job2");
  expectSameResult(Clean.Results[2], R.Results[3], "job3");
}

TEST(BatchPipeline, ReportNamesEveryJob) {
  std::vector<BatchJob> Jobs = makeTestJobs();
  BatchResult R = runBatchPipeline(Jobs);
  ASSERT_TRUE(R.allOk());
  std::string Report = renderBatchReport(Jobs, R);
  for (const BatchJob &Job : Jobs)
    EXPECT_NE(Report.find(Job.Name), std::string::npos) << Job.Name;
  EXPECT_NE(Report.find("cache"), std::string::npos);
}

} // namespace

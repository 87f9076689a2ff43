//===- tests/BatchPipelineTests.cpp - batch pipeline unit/smoke tests ---------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the batch pipeline's work-stealing ThreadPool, plus smoke
/// tests that runBatchPipeline agrees with the serial runPipeline on the
/// shared test programs under several pass sets. The exhaustive randomized
/// equivalence check lives in ParallelDeterminismTests.cpp.
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

/// Everything observable must match; timing counters are exempt by design
/// (they live in PipelineResult::Stats).
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
    EXPECT_EQ(R.ThreadsUsed, Threads);
    EXPECT_GE(R.WallSeconds, 0.0);
    EXPECT_GE(R.getCpuSeconds(), 0.0);
    for (size_t I = 0; I != Jobs.size(); ++I)
      expectSameResult(Serial[I], R.Results[I],
                       Jobs[I].Name + " threads=" +
                           std::to_string(Threads));
  }
}

TEST(BatchPipeline, CachedMatchesUncachedAcrossPassSets) {
  // The name dates from when a batch memoized pre-opt bodies across
  // configurations. What it still pins: under four pass sets that each
  // switch the pre-opt and post-inline passes together, a 4-thread batch
  // matches the serial pipeline job for job.
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
    BatchOptions Options;
    Options.Jobs = 4;
    BatchResult A = runBatchPipeline(Jobs, Options);
    ASSERT_TRUE(A.allOk());
    ASSERT_EQ(A.Results.size(), Jobs.size());
    for (size_t I = 0; I != Jobs.size(); ++I) {
      const BatchJob &Job = Jobs[I];
      PipelineResult B =
          runPipeline(Job.Source, Job.Name, Job.Inputs, Job.Options);
      expectSameResult(A.Results[I], B, std::string(Spec) + " " + Job.Name);
    }
  }
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
  EXPECT_NE(Report.find("pre-opt work: "), std::string::npos);
}

} // namespace

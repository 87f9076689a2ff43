//===- tests/ParallelDeterminismTests.cpp - batch == serial, always -----------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch pipeline's determinism contract, property-tested: for 64
/// random programs, running the serial Pipeline and the BatchPipeline (at
/// one thread and at an oversubscribed four threads, with the shared
/// function-definition cache active) must produce identical PhaseMetrics,
/// identical inline decisions (linearization, plan, expansion records,
/// eliminated functions), and byte-identical printed modules. Seeds vary
/// the pipeline knobs, including tail-recursion elimination — the pass
/// whose result depends on function identity and so stresses the cache
/// key — and a dedicated regression pits a self-recursive function against
/// a byte-identical wrapper. A final test asserts the same over the full
/// 12-program benchmark suite, which is the configuration every
/// table/ablation bench runs in.
///
//===----------------------------------------------------------------------===//

#include "driver/BatchPipeline.h"
#include "driver/Pipeline.h"
#include "ir/IrPrinter.h"
#include "suite/Suite.h"

#include "RandomProgram.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace impact;
using test::generateRandomProgram;

namespace {

/// Inputs exercising different lengths and characters per seed (mirrors
/// PropertyTests so the two tiers cover the same program behaviours).
std::vector<RunInput> makeInputs(uint64_t Seed) {
  std::vector<RunInput> Inputs;
  for (const std::string &In :
       {std::string(""), std::string("a"),
        "hello world " + std::to_string(Seed),
        std::string(17, static_cast<char>('a' + Seed % 26)),
        "mixed 123 !?" + std::string(Seed % 7, 'z')})
    Inputs.push_back(RunInput{In, ""});
  return Inputs;
}

/// Asserts every observable field matches. PipelineResult::Stats (wall
/// times, cache hit/miss split) is deliberately excluded: timing is the
/// one thing parallel execution is allowed to change.
void expectBitIdentical(const PipelineResult &Serial,
                        const PipelineResult &Batch,
                        const std::string &Tag) {
  ASSERT_EQ(Serial.Ok, Batch.Ok) << Tag << ": " << Batch.Error;
  EXPECT_EQ(Serial.Error, Batch.Error) << Tag;

  // Phase metrics: every dynamic counter of both profiling phases.
  EXPECT_TRUE(Serial.Before == Batch.Before) << Tag << " (Before metrics)";
  EXPECT_TRUE(Serial.After == Batch.After) << Tag << " (After metrics)";

  // Inline decisions: the order functions were processed in, which sites
  // were selected, and what was physically expanded and eliminated.
  EXPECT_TRUE(Serial.Inline.Linear == Batch.Inline.Linear)
      << Tag << " (linearization)";
  EXPECT_TRUE(Serial.Inline.Plan == Batch.Inline.Plan) << Tag << " (plan)";
  EXPECT_TRUE(Serial.Inline.Expansions == Batch.Inline.Expansions)
      << Tag << " (expansions)";
  EXPECT_EQ(Serial.Inline.EliminatedFunctions,
            Batch.Inline.EliminatedFunctions)
      << Tag;
  EXPECT_EQ(Serial.Inline.SizeBefore, Batch.Inline.SizeBefore) << Tag;
  EXPECT_EQ(Serial.Inline.SizeAfter, Batch.Inline.SizeAfter) << Tag;

  // Observable program behaviour and the final module, byte for byte.
  EXPECT_EQ(Serial.OutputsBefore, Batch.OutputsBefore) << Tag;
  EXPECT_EQ(Serial.OutputsAfter, Batch.OutputsAfter) << Tag;
  EXPECT_EQ(printModule(Serial.FinalModule), printModule(Batch.FinalModule))
      << Tag;
}

class ParallelDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDeterminism, BatchMatchesSerialAtAnyThreadCount) {
  uint64_t Seed = GetParam();
  std::string Source = generateRandomProgram(Seed);
  std::vector<RunInput> Inputs = makeInputs(Seed);

  PipelineOptions Options;
  Options.Inline.PostInlineOptimize = (Seed % 2) == 0;
  // Every third seed enables the one pre-opt pass whose rewrite depends on
  // the function's own identity (self-call status), not just its printed
  // body — exactly the configuration a body-keyed cache can get wrong.
  Options.PreOpt.TailRecursionElimination = (Seed % 3) == 0;
  // Odd seeds widen the pipeline with LICM, so the cache key must
  // separate eight pass combinations across the seed range, and LICM's
  // preheader splicing runs under every thread count.
  Options.PreOpt.LoopInvariantCodeMotion = (Seed % 2) == 1;
  if (Options.Inline.PostInlineOptimize)
    Options.Inline.PostOpt = Options.PreOpt;

  PipelineResult Serial = runPipeline(
      Source, "random" + std::to_string(Seed), Inputs, Options);
  ASSERT_TRUE(Serial.Ok) << "seed " << Seed << ": " << Serial.Error;

  BatchJob Job;
  Job.Name = "random" + std::to_string(Seed);
  Job.Source = Source;
  Job.Inputs = Inputs;
  Job.Options = Options;

  // One thread, then oversubscribed (more workers than cores exercises
  // interleaving even on small machines). The definition cache is on in
  // both — a cache hit must be indistinguishable from recomputation.
  for (unsigned Threads : {1u, 4u}) {
    BatchOptions Batch;
    Batch.Jobs = Threads;
    BatchResult R = runBatchPipeline({Job}, Batch);
    ASSERT_EQ(R.Results.size(), 1u);
    expectBitIdentical(Serial, R.Results[0],
                       "seed " + std::to_string(Seed) + " threads=" +
                           std::to_string(Threads));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminism,
                         ::testing::Range<uint64_t>(1, 65));

// Cache-key regression across two jobs sharing the batch cache. In
// RecSource, rec (f0) tail-calls itself from its module's first call
// site; in WrapSource, wrap calls helper (also f0) from *its* module's
// first call site, so wrap's body prints to the very same bytes as rec's
// (same callee id, registers, site id) — but helper computes something
// else entirely, and only rec's call is a *self*-call. With
// TailRecursionElimination on, only rec may be rewritten into a loop; a
// cache keyed on printed bytes alone splices one function's post-opt body
// into the other and diverges from the serial (uncached) pipeline in
// profiles, printed IR, and program output.
TEST(ParallelDeterminism, TreWrapperDoesNotCollideWithSelfRecursion) {
  const char *RecSource =
      "int rec(int n, int acc) { if (n == 0) return acc;"
      "return rec(n - 1, acc + n); }"
      "extern int getchar(); extern int print_int(int v);"
      "int main() { int c; int t; t = 0; c = getchar();"
      "while (c != -1) { t = t + rec(c % 8, 1);"
      "c = getchar(); } print_int(t); return 0; }";
  const char *WrapSource =
      "int helper(int n, int acc) { return acc - n; }"
      "int wrap(int n, int acc) { if (n == 0) return acc;"
      "return helper(n - 1, acc + n); }"
      "extern int getchar(); extern int print_int(int v);"
      "int main() { int c; int t; t = 0; c = getchar();"
      "while (c != -1) { t = t + wrap(c % 8, 1);"
      "c = getchar(); } print_int(t); return 0; }";

  std::vector<RunInput> Inputs;
  Inputs.push_back(RunInput{"abcdefgh", ""});
  Inputs.push_back(RunInput{"", ""});

  PipelineOptions Options;
  Options.PreOpt.TailRecursionElimination = true;

  std::vector<BatchJob> Jobs(2);
  Jobs[0].Name = "tre-rec";
  Jobs[0].Source = RecSource;
  Jobs[1].Name = "tre-wrap";
  Jobs[1].Source = WrapSource;
  std::vector<PipelineResult> Serial;
  for (BatchJob &Job : Jobs) {
    Job.Inputs = Inputs;
    Job.Options = Options;
    Serial.push_back(runPipeline(Job.Source, Job.Name, Job.Inputs,
                                 Job.Options));
    ASSERT_TRUE(Serial.back().Ok) << Job.Name << ": "
                                  << Serial.back().Error;
  }

  for (unsigned Threads : {1u, 4u}) {
    BatchOptions Batch;
    Batch.Jobs = Threads;
    BatchResult R = runBatchPipeline(Jobs, Batch);
    ASSERT_EQ(R.Results.size(), 2u);
    for (size_t I = 0; I != Jobs.size(); ++I)
      expectBitIdentical(Serial[I], R.Results[I],
                         Jobs[I].Name + " threads=" +
                             std::to_string(Threads));
  }
}

// The configurations the benches actually run: the whole 12-program suite
// as one batch, shared cache, parallel workers — once at the paper
// baseline and once with the full widened pipeline (the ablation lattice's
// "+licm" point, pre-opt and post-inline both).
TEST(ParallelDeterminism, FullSuiteBatchMatchesSerial) {
  PipelineOptions Widened;
  Widened.PreOpt.LoopInvariantCodeMotion = true;
  Widened.Inline.PostInlineOptimize = true;
  Widened.Inline.PostOpt = Widened.PreOpt;

  for (const PipelineOptions &Config : {PipelineOptions(), Widened}) {
    std::vector<BatchJob> Jobs;
    std::vector<PipelineResult> Serial;
    for (const BenchmarkSpec &B : getBenchmarkSuite()) {
      BatchJob Job;
      Job.Name = B.Name;
      Job.Source = B.Source;
      Job.Inputs = makeBenchmarkInputs(B, 2);
      Job.Options = Config;
      Serial.push_back(runPipeline(Job.Source, Job.Name, Job.Inputs,
                                   Job.Options));
      ASSERT_TRUE(Serial.back().Ok) << B.Name << ": "
                                    << Serial.back().Error;
      Jobs.push_back(std::move(Job));
    }

    std::string Tag = Config.PreOpt.LoopInvariantCodeMotion
                          ? std::string(" widened")
                          : std::string(" baseline");
    BatchOptions Options;
    Options.Jobs = 4;
    BatchResult R = runBatchPipeline(Jobs, Options);
    ASSERT_TRUE(R.allOk()) << "first failure: " << R.firstFailure();
    ASSERT_EQ(R.Results.size(), Jobs.size());
    for (size_t I = 0; I != Jobs.size(); ++I)
      expectBitIdentical(Serial[I], R.Results[I], Jobs[I].Name + Tag);
  }
}

} // namespace

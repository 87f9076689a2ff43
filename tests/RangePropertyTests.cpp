//===- tests/RangePropertyTests.cpp - static facts vs dynamic truth ---------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `ranges` tier: every fact the interprocedural range/purity analysis
/// emits is asserted against real executions. The 12-benchmark suite and a
/// randomized MiniC corpus run through BOTH engines (walker and VM) with
/// a RangeFactChecker installed; any dynamic violation of a
/// statically-proven fact is a hard failure. The same
/// programs re-run after inline expansion plus the ranges-powered
/// optimizer, so the facts must stay true across every transform they
/// license. The analyzer's range-backed rules must be engine- and
/// thread-count-invariant and produce zero error findings on legal
/// programs.
///
/// Run with `ctest -L ranges`. Corpus width: IMPACT_FUZZ_SEEDS (>= 64).
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "analysis/RangeAnalysis.h"
#include "core/InlinePass.h"
#include "driver/BatchPipeline.h"
#include "ir/IrPrinter.h"
#include "ir/IrVerifier.h"
#include "suite/Suite.h"
#include "vm/Bytecode.h"
#include "vm/Vm.h"

#include "RandomProgram.h"
#include "TestUtil.h"

#include <gtest/gtest.h>


using namespace impact;

namespace {

/// All pipeline passes, driven by range facts.
OptOptions rangedPasses() {
  OptOptions Opts;
  Opts.Peephole = true;
  Opts.LoopInvariantCodeMotion = true;
  Opts.Ranges = true;
  return Opts;
}

/// Computes \p M's facts, installs a checker, and runs every input
/// through the walker and the VM. Zero violations required; at least one
/// check must actually fire (the tier must never silently degrade into
/// checking nothing).
void expectFactsHold(const Module &M, const std::vector<RunInput> &Inputs,
                     const std::string &Tag) {
  ModuleRangeFacts Facts = computeModuleRangeFacts(M);
  RangeFactChecker Check(M, Facts);
  VmProgram P = compileToBytecode(M);
  for (const RunInput &In : Inputs) {
    RunOptions Opts;
    Opts.Input = In.Input;
    Opts.Input2 = In.Input2;
    Opts.FactCheck = &Check;
    (void)runProgram(M, Opts);
    (void)runProgramVm(P, Opts);
  }
  EXPECT_GT(Check.getChecksPerformed(), 0u) << Tag;
  if (!Check.ok())
    for (const std::string &V : Check.getViolations())
      ADD_FAILURE() << Tag << ": " << V;
}

/// Inline-expands \p M (profile-driven) and runs the ranges-powered
/// post-inline optimizer over every expanded caller.
void inlineWithRanges(Module &M, const std::vector<RunInput> &Inputs) {
  ProfileResult PR = profileProgram(M, Inputs);
  ASSERT_TRUE(PR.allRunsOk());
  InlineOptions Options;
  Options.PostInlineOptimize = true;
  Options.PostOpt = rangedPasses();
  runInlineExpansion(M, PR.Data, Options);
  ASSERT_EQ(verifyModuleText(M), "");
}

//===----------------------------------------------------------------------===//
// The 12-benchmark suite
//===----------------------------------------------------------------------===//

TEST(RangeSuite, FactsHoldDynamically) {
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    SCOPED_TRACE(Spec.Name);
    Module M = test::compileOk(Spec.Source);
    std::vector<RunInput> Inputs = makeBenchmarkInputs(Spec, 2);
    ASSERT_FALSE(Inputs.empty());
    expectFactsHold(M, Inputs, Spec.Name);
  }
}

TEST(RangeSuite, FactsHoldAfterRangedInlineAndOptimize) {
  // The facts are recomputed on the transformed module, so this checks
  // both that recomputation stays sound and that no ranges-licensed
  // rewrite (peephole identity or strength reduction, LICM hoist) changed
  // observable behavior enough to falsify a fact.
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    SCOPED_TRACE(Spec.Name);
    Module M = test::compileOk(Spec.Source);
    std::vector<RunInput> Inputs = makeBenchmarkInputs(Spec, 2);
    inlineWithRanges(M, Inputs);
    if (::testing::Test::HasFailure())
      return;
    expectFactsHold(M, Inputs, Spec.Name + " post-inline");
  }
}

TEST(RangeSuite, RangedOptimizerPreservesOutputs) {
  // Ranges on vs off around the same inline expansion: bit-identical
  // outputs on every input (the optimizer may only go faster, never
  // differ).
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    SCOPED_TRACE(Spec.Name);
    std::vector<RunInput> Inputs =
        makeBenchmarkInputs(Spec, 2);

    Module Plain = test::compileOk(Spec.Source);
    Module Ranged = test::compileOk(Spec.Source);
    ProfileResult PR = profileProgram(Plain, Inputs);
    ASSERT_TRUE(PR.allRunsOk());

    InlineOptions Options;
    Options.PostInlineOptimize = true;
    Options.PostOpt = rangedPasses();
    Options.PostOpt.Ranges = false;
    runInlineExpansion(Plain, PR.Data, Options);
    Options.PostOpt.Ranges = true;
    runInlineExpansion(Ranged, PR.Data, Options);
    ASSERT_EQ(verifyModuleText(Ranged), "");

    ProfileResult A = profileProgram(Plain, Inputs);
    ProfileResult B = profileProgram(Ranged, Inputs);
    EXPECT_EQ(A.Failures, B.Failures);
    EXPECT_EQ(A.Outputs, B.Outputs);
  }
}

//===----------------------------------------------------------------------===//
// Randomized corpus
//===----------------------------------------------------------------------===//

const char *const kCorpusInputs[] = {"", "a", "hello world",
                                     "0123456789abcdef"};

TEST(RangeCorpus, FactsHoldDynamically) {
  unsigned Seeds = test::getFuzzSeedCount(/*Floor=*/64);
  for (uint64_t Seed = 0; Seed != Seeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Module M = test::compileOk(test::generateRandomProgram(Seed));
    if (::testing::Test::HasFailure())
      return; // generator contract broken; no point running the corpus
    std::vector<RunInput> Inputs;
    for (const char *In : kCorpusInputs)
      Inputs.push_back(RunInput{In, ""});
    expectFactsHold(M, Inputs, "seed " + std::to_string(Seed));
  }
}

TEST(RangeCorpus, FactsHoldAfterRangedInlineAndOptimize) {
  unsigned Seeds = test::getFuzzSeedCount(/*Floor=*/64);
  for (uint64_t Seed = 0; Seed != Seeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Module M = test::compileOk(test::generateRandomProgram(Seed));
    if (::testing::Test::HasFailure())
      return;
    std::vector<RunInput> Inputs;
    for (const char *In : kCorpusInputs)
      Inputs.push_back(RunInput{In, ""});
    ProfileResult PR = profileProgram(M, Inputs);
    if (!PR.allRunsOk())
      continue; // corpus programs may trap by design; facts need clean runs
    InlineOptions Options;
    Options.PostInlineOptimize = true;
    Options.PostOpt = rangedPasses();
    runInlineExpansion(M, PR.Data, Options);
    ASSERT_EQ(verifyModuleText(M), "") << "seed " << Seed;
    expectFactsHold(M, Inputs, "seed " + std::to_string(Seed) +
                                   " post-inline");
  }
}

//===----------------------------------------------------------------------===//
// Analyzer range rules: deterministic, engine-invariant, silent on legal
// programs
//===----------------------------------------------------------------------===//

std::vector<BatchJob> makeAnalyzedSuiteJobs() {
  std::vector<BatchJob> Jobs;
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    BatchJob Job;
    Job.Name = Spec.Name;
    Job.Source = Spec.Source;
    Job.Inputs = makeBenchmarkInputs(Spec, 2);
    Job.Options.Analyze = true; // default AnalysisOptions: every rule on
    Job.Options.Inline.PostInlineOptimize = true;
    Job.Options.Inline.PostOpt = rangedPasses();
    Jobs.push_back(std::move(Job));
  }
  return Jobs;
}

TEST(RangeBatch, FindingsIdenticalAcrossThreadCountsAndErrorFree) {
  BatchOptions Serial, Wide;
  Serial.Jobs = 1;
  Wide.Jobs = 4;
  BatchResult A = runBatchPipeline(makeAnalyzedSuiteJobs(), Serial);
  BatchResult B = runBatchPipeline(makeAnalyzedSuiteJobs(), Wide);
  ASSERT_TRUE(A.allOk());
  ASSERT_TRUE(B.allOk());
  ASSERT_EQ(A.Results.size(), B.Results.size());
  for (size_t I = 0; I != A.Results.size(); ++I) {
    const std::string &Name = getBenchmarkSuite()[I].Name;
    EXPECT_TRUE(A.Results[I].Analysis == B.Results[I].Analysis) << Name;
    for (const Finding &F : A.Results[I].Analysis.Findings)
      EXPECT_NE(F.Sev, Severity::Error) << Name << ": " << F.render();
  }
}

TEST(RangeCorpus, AnalyzerErrorFreeAndDeterministicOnRandomPrograms) {
  // guaranteed-trap is an error-severity rule; it must never fire on the
  // generator's legal programs, and re-analysis must be bit-identical.
  unsigned Seeds = test::getFuzzSeedCount(/*Floor=*/64);
  AnalysisOptions Options; // defaults: every rule enabled
  for (uint64_t Seed = 0; Seed != Seeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Module M = test::compileOk(test::generateRandomProgram(Seed));
    if (::testing::Test::HasFailure())
      return;
    AnalysisReport First = analyzeModule(M, Options);
    AnalysisReport Second = analyzeModule(M, Options);
    EXPECT_TRUE(First == Second);
    for (const Finding &F : First.Findings)
      EXPECT_NE(F.Sev, Severity::Error) << F.render();
  }
}

//===----------------------------------------------------------------------===//
// Interval lattice units
//===----------------------------------------------------------------------===//

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

TEST(Interval, LatticeBasics) {
  EXPECT_TRUE(Interval::bottom().isBottom());
  EXPECT_TRUE(Interval::top().isTop());
  EXPECT_TRUE(Interval::constant(7).isConstant());
  EXPECT_FALSE(Interval::bottom().isConstant());
  EXPECT_TRUE(Interval::make(3, 1).isBottom()); // canonicalized
  EXPECT_TRUE(Interval::make(-2, 5).contains(0));
  EXPECT_TRUE(Interval::make(1, 5).excludesZero());
  EXPECT_TRUE(Interval::make(-5, -1).excludesZero());
  EXPECT_FALSE(Interval::make(-1, 1).excludesZero());
  EXPECT_FALSE(Interval::bottom().excludesZero());
  EXPECT_TRUE(Interval::make(0, 9).isNonNegative());
  EXPECT_FALSE(Interval::bottom().isNonNegative());
}

TEST(Interval, JoinMeetWiden) {
  Interval A = Interval::make(1, 5), B = Interval::make(3, 9);
  EXPECT_EQ(join(A, B), Interval::make(1, 9));
  EXPECT_EQ(meet(A, B), Interval::make(3, 5));
  EXPECT_EQ(join(Interval::bottom(), A), A);
  EXPECT_TRUE(meet(Interval::make(1, 2), Interval::make(5, 6)).isBottom());
  // Widening: a grown bound jumps to infinity, a stable one stays exact.
  EXPECT_EQ(widen(Interval::make(0, 5), Interval::make(0, 6)),
            Interval::make(0, kMax));
  EXPECT_EQ(widen(Interval::make(0, 5), Interval::make(-1, 5)),
            Interval::make(kMin, 5));
  EXPECT_EQ(widen(Interval::make(0, 5), Interval::make(0, 5)),
            Interval::make(0, 5));
}

TEST(Interval, ArithmeticOverflowGoesToTop) {
  EXPECT_EQ(rangeAdd(Interval::constant(2), Interval::constant(3)),
            Interval::constant(5));
  EXPECT_TRUE(rangeAdd(Interval::constant(kMax), Interval::constant(1))
                  .isTop());
  EXPECT_TRUE(rangeMul(Interval::constant(kMax), Interval::constant(2))
                  .isTop());
  EXPECT_EQ(rangeSub(Interval::make(1, 4), Interval::make(1, 2)),
            Interval::make(-1, 3));
  EXPECT_TRUE(rangeNeg(Interval::constant(kMin)).isTop());
}

TEST(Interval, DivRemTrapHazardsGoToTop) {
  // A singleton div/rem result implies the operation provably cannot
  // trap — any fold of a singleton result to a constant leans on
  // exactly this property.
  EXPECT_EQ(rangeDiv(Interval::constant(42), Interval::constant(7)),
            Interval::constant(6));
  EXPECT_TRUE(rangeDiv(Interval::constant(42), Interval::make(0, 7))
                  .isTop());
  EXPECT_TRUE(rangeDiv(Interval::constant(kMin), Interval::constant(-1))
                  .isTop());
  EXPECT_EQ(rangeRem(Interval::constant(42), Interval::constant(5)),
            Interval::constant(2));
  EXPECT_TRUE(rangeRem(Interval::constant(1), Interval::make(-1, 1))
                  .isTop());
  EXPECT_TRUE(divMayTrap(Interval::top(), Interval::top()));
  EXPECT_TRUE(divMayTrap(Interval::constant(1), Interval::make(-1, 1)));
  EXPECT_FALSE(divMayTrap(Interval::make(0, 100), Interval::make(1, 8)));
  EXPECT_TRUE(divMayTrap(Interval::constant(kMin), Interval::constant(-1)));
  // Bottom operands mean the instruction never executes.
  EXPECT_FALSE(divMayTrap(Interval::bottom(), Interval::constant(0)));
}

TEST(Interval, ComparisonsProveOnlyWhenDisjoint) {
  Interval Lo = Interval::make(0, 4), Hi = Interval::make(5, 9);
  EXPECT_EQ(rangeCmp(Opcode::CmpLt, Lo, Hi), Interval::constant(1));
  EXPECT_EQ(rangeCmp(Opcode::CmpLt, Hi, Lo), Interval::constant(0));
  EXPECT_EQ(rangeCmp(Opcode::CmpLt, Lo, Lo), Interval::make(0, 1));
  EXPECT_EQ(rangeCmp(Opcode::CmpEq, Interval::constant(3),
                     Interval::constant(3)),
            Interval::constant(1));
  EXPECT_EQ(rangeCmp(Opcode::CmpEq, Lo, Hi), Interval::constant(0));
}

} // namespace

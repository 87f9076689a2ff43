//===- tests/MinCoverPropertyTests.cpp - mincover equivalence tier ----------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The minimum-coverage instrumentation tier (`ctest -L mincover`): full
/// instrumentation is the oracle, and Kirchhoff inference from co-tree
/// probes must reproduce its ProfileData bit for bit — across the whole
/// 12-benchmark suite, a randomized MiniC corpus, both engines, truncated
/// runs, and the batch pipeline at any job count. The weight-conservation
/// audit runs over every inferred profile, so "the books balance" is
/// checked by the same rule that guards measured profiles.
///
/// The random-corpus width is tunable via IMPACT_FUZZ_SEEDS (shared with
/// the fuzz and differential tiers; floored at 64).
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "driver/BatchPipeline.h"
#include "interp/Engine.h"
#include "ir/IrPrinter.h"
#include "profile/Profiler.h"
#include "suite/Suite.h"

#include "RandomProgram.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace impact;

namespace {

/// Profiles \p M under minimum coverage with \p Engine and checks every
/// observable against the fully-instrumented walker result \p Oracle.
void expectProfileMatchesOracle(const Module &M,
                                const std::vector<RunInput> &Inputs,
                                const RunOptions &Base, ExecEngine Engine,
                                const ProfileResult &Oracle,
                                const std::string &Tag) {
  ProfileResult Mc =
      profileProgram(M, Inputs, Base, Engine, InstrumentMode::MinCover);
  EXPECT_EQ(Mc.Failures, Oracle.Failures) << Tag;
  EXPECT_EQ(Mc.Outputs, Oracle.Outputs) << Tag;
  EXPECT_TRUE(Mc.Data == Oracle.Data) << Tag << ": inferred profile diverged";
}

//===----------------------------------------------------------------------===//
// The 12-benchmark suite
//===----------------------------------------------------------------------===//

TEST(MinCoverSuite, InferredProfilesAreBitIdentical) {
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    SCOPED_TRACE(Spec.Name);
    Module M = test::compileOk(Spec.Source);
    std::vector<RunInput> Inputs = makeBenchmarkInputs(Spec, 2);
    ASSERT_FALSE(Inputs.empty());
    ProfileResult Oracle = profileProgram(M, Inputs, RunOptions(),
                                          ExecEngine::Walker,
                                          InstrumentMode::Full);
    ASSERT_TRUE(Oracle.allRunsOk());
    for (ExecEngine Engine :
         {ExecEngine::Walker, ExecEngine::Vm, ExecEngine::Both})
      expectProfileMatchesOracle(M, Inputs, RunOptions(), Engine, Oracle,
                                 std::string(getEngineName(Engine)));
  }
}

TEST(MinCoverSuite, TruncatedRunsStillInferExactly) {
  // Step limits that expire mid-run exercise the halt-record path on real
  // call-heavy programs; the failure lists must match too (same statuses,
  // same messages), since the pipeline's quarantine logic keys off them.
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    SCOPED_TRACE(Spec.Name);
    Module M = test::compileOk(Spec.Source);
    std::vector<RunInput> Inputs = makeBenchmarkInputs(Spec, 1);
    for (uint64_t Limit : {1ull, 100ull, 5000ull}) {
      RunOptions Base;
      Base.StepLimit = Limit;
      ProfileResult Oracle = profileProgram(M, Inputs, Base,
                                            ExecEngine::Walker,
                                            InstrumentMode::Full);
      for (ExecEngine Engine : {ExecEngine::Walker, ExecEngine::Vm})
        expectProfileMatchesOracle(M, Inputs, Base, Engine, Oracle,
                                   std::string(getEngineName(Engine)) +
                                       " limit " + std::to_string(Limit));
    }
  }
}

//===----------------------------------------------------------------------===//
// Randomized corpus
//===----------------------------------------------------------------------===//

TEST(MinCoverCorpus, RandomProgramsInferExactly) {
  unsigned Seeds = test::getFuzzSeedCount(/*Floor=*/64);
  std::vector<RunInput> Inputs;
  for (const char *In : {"", "a", "hello world", "0123456789abcdef"})
    Inputs.push_back({In, ""});
  for (uint64_t Seed = 0; Seed != Seeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::string Source = test::generateRandomProgram(Seed);
    Module M = test::compileOk(Source);
    if (::testing::Test::HasFailure())
      return; // generator contract broken; no point running the corpus
    ProfileResult Oracle = profileProgram(M, Inputs, RunOptions(),
                                          ExecEngine::Walker,
                                          InstrumentMode::Full);
    for (ExecEngine Engine : {ExecEngine::Walker, ExecEngine::Vm})
      expectProfileMatchesOracle(M, Inputs, RunOptions(), Engine, Oracle,
                                 std::string(getEngineName(Engine)));
  }
}

TEST(MinCoverCorpus, RandomProgramsUnderTightLimits) {
  unsigned Seeds = test::getFuzzSeedCount(/*Floor=*/64) / 4;
  std::vector<RunInput> Inputs{{"mincover", ""}};
  for (uint64_t Seed = 0; Seed != Seeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Module M = test::compileOk(test::generateRandomProgram(Seed));
    if (::testing::Test::HasFailure())
      return;
    for (uint64_t Limit : {0ull, 1ull, 7ull, 50ull, 333ull}) {
      RunOptions Base;
      Base.StepLimit = Limit;
      ProfileResult Oracle = profileProgram(M, Inputs, Base,
                                            ExecEngine::Walker,
                                            InstrumentMode::Full);
      for (ExecEngine Engine : {ExecEngine::Walker, ExecEngine::Vm})
        expectProfileMatchesOracle(M, Inputs, Base, Engine, Oracle,
                                   std::string(getEngineName(Engine)) +
                                       " limit " + std::to_string(Limit));
    }
  }
}

//===----------------------------------------------------------------------===//
// Pipeline and batch invariance
//===----------------------------------------------------------------------===//

std::vector<BatchJob> makeSuiteJobs(ExecEngine Engine,
                                    InstrumentMode Instrument) {
  std::vector<BatchJob> Jobs;
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    BatchJob Job;
    Job.Name = Spec.Name;
    Job.Source = Spec.Source;
    Job.Inputs = makeBenchmarkInputs(Spec, 2);
    Job.Options.Engine = Engine;
    Job.Options.Instrument = Instrument;
    // The weight-conservation audit cross-checks the inferred profile's
    // node and arc weights against the call-graph flow equations.
    Job.Options.Analyze = true;
    Jobs.push_back(std::move(Job));
  }
  return Jobs;
}

/// Everything observable must match (timing/cache counters exempt), and the
/// analyzer must agree finding-for-finding — in particular, zero
/// weight-conservation findings on the inferred profile.
void expectSamePipelineResult(const PipelineResult &A,
                              const PipelineResult &B,
                              const std::string &Tag) {
  ASSERT_EQ(A.Ok, B.Ok) << Tag;
  EXPECT_EQ(A.Error, B.Error) << Tag;
  EXPECT_TRUE(A.Before == B.Before) << Tag;
  EXPECT_TRUE(A.After == B.After) << Tag;
  EXPECT_EQ(A.OutputsBefore, B.OutputsBefore) << Tag;
  EXPECT_EQ(A.OutputsAfter, B.OutputsAfter) << Tag;
  EXPECT_TRUE(A.ProfileBefore == B.ProfileBefore) << Tag;
  EXPECT_EQ(printModule(A.FinalModule), printModule(B.FinalModule)) << Tag;
  EXPECT_EQ(A.Analysis.renderText(), B.Analysis.renderText()) << Tag;
  EXPECT_FALSE(B.Analysis.hasErrors()) << Tag;
  for (const Finding &F : B.Analysis.Findings)
    EXPECT_NE(F.Rule, kRuleAuditWeightConservation)
        << Tag << ": " << F.render();
}

TEST(MinCoverBatch, PipelineIsInstrumentAndJobCountInvariant) {
  // Oracle: fully-instrumented walker, serial. Every (engine, mincover,
  // jobs) combination must produce the same plans, profiles, outputs, and
  // analysis findings — instrumentation is a measurement strategy, never
  // an observable.
  BatchOptions Serial, Wide;
  Serial.Jobs = 1;
  Wide.Jobs = 4;
  BatchResult Oracle = runBatchPipeline(
      makeSuiteJobs(ExecEngine::Walker, InstrumentMode::Full), Serial);
  ASSERT_TRUE(Oracle.allOk());
  ASSERT_EQ(Oracle.Results.size(), getBenchmarkSuite().size());

  for (ExecEngine Engine : {ExecEngine::Walker, ExecEngine::Vm})
    for (const BatchOptions *Options : {&Serial, &Wide}) {
      BatchResult R = runBatchPipeline(
          makeSuiteJobs(Engine, InstrumentMode::MinCover), *Options);
      std::string Tag = std::string(getEngineName(Engine)) +
                        "/mincover/jobs=" + std::to_string(Options->Jobs);
      EXPECT_TRUE(R.allOk()) << Tag;
      for (const UnitFailure &F : R.Failures)
        ADD_FAILURE() << Tag << ": " << F.render();
      ASSERT_EQ(R.Results.size(), Oracle.Results.size()) << Tag;
      for (size_t I = 0; I != R.Results.size(); ++I)
        expectSamePipelineResult(Oracle.Results[I], R.Results[I],
                                 Tag + " " + getBenchmarkSuite()[I].Name);
    }
}

TEST(MinCoverBatch, BothEngineCrossChecksRawObservables) {
  // engine=both under mincover compares the RAW arc counters and halt
  // records across engines before inference — a green batch is the
  // engine-equivalence proof for the probe placement itself.
  BatchResult R = runBatchPipeline(
      makeSuiteJobs(ExecEngine::Both, InstrumentMode::MinCover));
  EXPECT_TRUE(R.allOk());
  for (const UnitFailure &F : R.Failures)
    ADD_FAILURE() << F.render();
  for (const PipelineResult &P : R.Results)
    EXPECT_FALSE(P.Analysis.hasErrors());
}

} // namespace

//===- tests/DifferentialTests.cpp - walker vs VM equivalence tier ----------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-testing oracle for the bytecode VM: the tree-walking
/// interpreter in src/interp defines the semantics, and every program we
/// can lay hands on — the whole 12-benchmark suite and a randomized MiniC
/// corpus — must produce bit-identical results through the VM: stdout,
/// exit codes, trap kinds and messages, step counts, per-opcode counts,
/// and the paper's profile node/arc weights. The batch pipeline must be
/// engine-invariant at any job count.
///
/// Run with `ctest -L differential`. The random-corpus width is tunable
/// via IMPACT_FUZZ_SEEDS (shared with the fuzz tier; default 64).
///
//===----------------------------------------------------------------------===//

#include "driver/BatchPipeline.h"
#include "interp/Engine.h"
#include "ir/IrPrinter.h"
#include "suite/Suite.h"
#include "vm/Bytecode.h"
#include "vm/Vm.h"

#include "RandomProgram.h"
#include "TestUtil.h"

#include <gtest/gtest.h>


using namespace impact;

namespace {

/// Walker vs VM on one run; the full ExecResult must be bit-identical.
void expectRunsAgree(const Module &M, const VmProgram &P,
                     const RunOptions &Opts, const std::string &Tag) {
  EXPECT_EQ(describeResultDifference(runProgram(M, Opts),
                                     runProgramVm(P, Opts)),
            "")
      << Tag;
}

//===----------------------------------------------------------------------===//
// The 12-benchmark suite
//===----------------------------------------------------------------------===//

TEST(DifferentialSuite, EveryBenchmarkRunsIdentically) {
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    SCOPED_TRACE(Spec.Name);
    Module M = test::compileOk(Spec.Source);
    VmProgram P = compileToBytecode(M);
    std::vector<RunInput> Inputs = makeBenchmarkInputs(Spec, 2);
    ASSERT_FALSE(Inputs.empty());
    for (size_t I = 0; I != Inputs.size(); ++I) {
      RunOptions Opts;
      Opts.Input = Inputs[I].Input;
      Opts.Input2 = Inputs[I].Input2;
      expectRunsAgree(M, P, Opts,
                      Spec.Name + " input " + std::to_string(I));
    }
  }
}

TEST(DifferentialSuite, EveryBenchmarkProfilesIdentically) {
  // The profile is what drives inline planning — node weights, arc
  // weights, and the dynamic totals must not depend on the engine.
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    SCOPED_TRACE(Spec.Name);
    Module M = test::compileOk(Spec.Source);
    std::vector<RunInput> Inputs = makeBenchmarkInputs(Spec, 2);
    ProfileResult W =
        profileProgram(M, Inputs, RunOptions(), ExecEngine::Walker);
    ProfileResult V =
        profileProgram(M, Inputs, RunOptions(), ExecEngine::Vm);
    ProfileResult B =
        profileProgram(M, Inputs, RunOptions(), ExecEngine::Both);
    EXPECT_EQ(W.Failures, V.Failures);
    EXPECT_EQ(W.Failures, B.Failures);
    EXPECT_TRUE(W.Data == V.Data) << "vm profile diverged";
    EXPECT_TRUE(W.Data == B.Data) << "both-mode profile diverged";
    EXPECT_EQ(W.Outputs, V.Outputs);
    EXPECT_EQ(W.Outputs, B.Outputs);
  }
}

TEST(DifferentialSuite, SuiteExercisesSuperinstructions) {
  // Not an equivalence check — a coverage guard: if fusion ever stops
  // firing on the suite, the differential tier would silently stop
  // testing the superinstruction handlers.
  uint64_t CmpBr = 0;
  VmRunStats Dynamic;
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    Module M = test::compileOk(Spec.Source);
    VmProgram P = compileToBytecode(M);
    CmpBr += P.Stats.FusedCmpBr;
    std::vector<RunInput> Inputs = makeBenchmarkInputs(Spec, 1);
    RunOptions Opts;
    Opts.Input = Inputs[0].Input;
    Opts.Input2 = Inputs[0].Input2;
    VmRunStats Stats;
    (void)runProgramVm(P, Opts, &Stats);
    Dynamic.merge(Stats);
  }
  EXPECT_GT(CmpBr, 0u);
  EXPECT_GT(Dynamic.FusedCmpBr, 0u);
  EXPECT_GT(Dynamic.getFusedStepFraction(), 0.0);
}

//===----------------------------------------------------------------------===//
// Randomized corpus
//===----------------------------------------------------------------------===//

TEST(DifferentialCorpus, RandomProgramsRunIdentically) {
  unsigned Seeds = test::getFuzzSeedCount(/*Floor=*/64);
  for (uint64_t Seed = 0; Seed != Seeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::string Source = test::generateRandomProgram(Seed);
    Module M = test::compileOk(Source);
    if (::testing::Test::HasFailure())
      return; // generator contract broken; no point running the corpus
    VmProgram P = compileToBytecode(M);
    for (const char *Input : {"", "a", "hello world", "0123456789abcdef"}) {
      RunOptions Opts;
      Opts.Input = Input;
      expectRunsAgree(M, P, Opts, "input '" + std::string(Input) + "'");
    }
  }
}

TEST(DifferentialCorpus, RandomProgramsAgreeUnderTightLimits) {
  // Re-run a slice of the corpus with step limits that exhaust mid-run
  // and a stack that recursion-free programs still fit in; the truncated
  // results must match exactly (same InstrCount, same opcode histogram).
  unsigned Seeds = test::getFuzzSeedCount(/*Floor=*/64) / 4;
  for (uint64_t Seed = 0; Seed != Seeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::string Source = test::generateRandomProgram(Seed);
    Module M = test::compileOk(Source);
    if (::testing::Test::HasFailure())
      return;
    VmProgram P = compileToBytecode(M);
    for (uint64_t Limit : {0ull, 1ull, 7ull, 50ull, 333ull}) {
      RunOptions Opts;
      Opts.Input = "differential";
      Opts.StepLimit = Limit;
      expectRunsAgree(M, P, Opts, "limit " + std::to_string(Limit));
    }
  }
}

//===----------------------------------------------------------------------===//
// The batch pipeline is engine-invariant at any job count
//===----------------------------------------------------------------------===//

std::vector<BatchJob> makeSuiteJobs(ExecEngine Engine) {
  std::vector<BatchJob> Jobs;
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    BatchJob Job;
    Job.Name = Spec.Name;
    Job.Source = Spec.Source;
    Job.Inputs = makeBenchmarkInputs(Spec, 2);
    Job.Options.Engine = Engine;
    Jobs.push_back(std::move(Job));
  }
  return Jobs;
}

/// Everything observable must match (timing/cache counters exempt).
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
}

TEST(DifferentialBatch, VmEngineMatchesWalkerAtAnyJobCount) {
  BatchOptions Serial, Wide;
  Serial.Jobs = 1;
  Wide.Jobs = 4;

  BatchResult WalkSerial = runBatchPipeline(makeSuiteJobs(ExecEngine::Walker),
                                            Serial);
  ASSERT_TRUE(WalkSerial.allOk());

  for (const auto &[Engine, Options] :
       {std::pair<ExecEngine, const BatchOptions *>{ExecEngine::Walker,
                                                    &Wide},
        {ExecEngine::Vm, &Serial},
        {ExecEngine::Vm, &Wide}}) {
    BatchResult R = runBatchPipeline(makeSuiteJobs(Engine), *Options);
    std::string Tag = std::string(getEngineName(Engine)) + "/jobs=" +
                      std::to_string(Options->Jobs);
    EXPECT_TRUE(R.allOk()) << Tag;
    ASSERT_EQ(R.Results.size(), WalkSerial.Results.size()) << Tag;
    for (size_t I = 0; I != R.Results.size(); ++I)
      expectSamePipelineResult(WalkSerial.Results[I], R.Results[I],
                               Tag + " " + getBenchmarkSuite()[I].Name);
  }
}

TEST(DifferentialBatch, BothEngineNeverDiverges) {
  // engine=both runs walker and VM on every profiled input and turns any
  // difference into a quarantined failure — a green suite batch IS the
  // divergence check.
  BatchResult R = runBatchPipeline(makeSuiteJobs(ExecEngine::Both));
  EXPECT_TRUE(R.allOk());
  for (const UnitFailure &F : R.Failures)
    ADD_FAILURE() << F.render();
  ASSERT_EQ(R.Results.size(), getBenchmarkSuite().size());
  BatchResult W = runBatchPipeline(makeSuiteJobs(ExecEngine::Walker));
  ASSERT_TRUE(W.allOk());
  for (size_t I = 0; I != R.Results.size(); ++I)
    expectSamePipelineResult(W.Results[I], R.Results[I],
                             getBenchmarkSuite()[I].Name);
}

} // namespace

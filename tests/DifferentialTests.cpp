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
/// engine-invariant at any job count. The walker's own results — including
/// its icache address stream, which the VM never produces — are pinned to
/// committed digests.
///
/// Run with `ctest -L differential`. The random-corpus width is tunable
/// via IMPACT_FUZZ_SEEDS (shared with the fuzz tier; default 64).
///
//===----------------------------------------------------------------------===//

#include "cachesim/ICacheSim.h"
#include "driver/BatchPipeline.h"
#include "interp/Engine.h"
#include "ir/IrPrinter.h"
#include "profile/MinCover.h"
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
// The walker's own observables, pinned
//===----------------------------------------------------------------------===//

void appendCounters(const char *Name, const std::vector<uint64_t> &V,
                    std::string &Out) {
  Out += Name;
  for (uint64_t C : V)
    Out += " " + std::to_string(C);
  Out += "\n";
}

/// Appends every field of \p R — status, exit code, trap message, output
/// and every ExecStats field — to \p Out.
void appendExecResult(const ExecResult &R, std::string &Out) {
  const ExecStats &S = R.Stats;
  Out += "status " + std::to_string(static_cast<int>(R.St)) + " exit " +
         std::to_string(R.ExitCode) + " trap '" + R.TrapMessage + "'\n";
  Out += "output " + std::to_string(R.Output.size()) + " " + R.Output + "\n";
  Out += "instrs " + std::to_string(S.InstrCount) + " control " +
         std::to_string(S.ControlTransfers) + " calls " +
         std::to_string(S.DynamicCalls) + " external " +
         std::to_string(S.ExternalCalls) + " pointer " +
         std::to_string(S.PointerCalls) + " returns " +
         std::to_string(S.Returns) + " peak " +
         std::to_string(S.PeakStackWords) + "\n";
  appendCounters("sites", S.SiteCounts, Out);
  appendCounters("entries", S.FuncEntryCounts, Out);
  appendCounters("opcodes", S.OpcodeCounts, Out);
  appendCounters("arcs", S.ArcCounts, Out);
  Out += "halts";
  for (const HaltRecord &H : S.Halts)
    Out += " " + std::to_string(H.Func) + ":" + std::to_string(H.Block) +
           ":" + std::to_string(H.CallsDone);
  Out += "\n";
}

/// Runs \p M through the walker in full and in minimum-coverage mode and
/// appends both results.
void appendBothModes(const Module &M, const MinCoverPlan &Plan,
                     RunOptions Opts, std::string &Out) {
  Opts.MinCover = nullptr;
  appendExecResult(runProgram(M, Opts), Out);
  Opts.MinCover = &Plan;
  appendExecResult(runProgram(M, Opts), Out);
}

TEST(DifferentialSuite, WalkerObservablesBitIdenticalToSeed) {
  // Walker-vs-VM equality cannot see the paths only the walker has — the
  // icache address stream and its own step accounting — so pin the
  // walker's complete results. A change to how the walker executes must
  // leave all three digests unchanged; a change to what it observes must
  // re-pin them deliberately. The corpus seeds are a fixed list,
  // independent of IMPACT_FUZZ_SEEDS.
  std::string Suite, Corpus, Cache;
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    Module M = test::compileOk(Spec.Source);
    MinCoverPlan Plan = buildMinCoverPlan(M);
    for (const RunInput &In : makeBenchmarkInputs(Spec, 2)) {
      RunOptions Opts;
      Opts.Input = In.Input;
      Opts.Input2 = In.Input2;
      Suite += "== " + Spec.Name + "\n";
      appendBothModes(M, Plan, Opts, Suite);
    }
  }
  for (uint64_t Seed = 0; Seed != 16; ++Seed) {
    Module M = test::compileOk(test::generateRandomProgram(Seed));
    MinCoverPlan Plan = buildMinCoverPlan(M);
    for (uint64_t Limit : {0ull, 1ull, 7ull, 50ull, 333ull}) {
      RunOptions Opts;
      Opts.Input = "walker";
      Opts.StepLimit = Limit;
      Opts.StackWords = 128;
      Corpus += "== seed " + std::to_string(Seed) + " limit " +
                std::to_string(Limit) + "\n";
      appendBothModes(M, Plan, Opts, Corpus);
    }
  }
  for (const char *Name : {"grep", "cccp"}) {
    const BenchmarkSpec *Spec = findBenchmark(Name);
    ASSERT_NE(Spec, nullptr) << Name;
    Module M = test::compileOk(Spec->Source);
    std::vector<RunInput> Inputs = makeBenchmarkInputs(*Spec, 1);
    ICacheSim Sim(ICacheConfig{});
    RunOptions Opts;
    Opts.Input = Inputs[0].Input;
    Opts.Input2 = Inputs[0].Input2;
    Opts.ICache = &Sim;
    ExecResult R = runProgram(M, Opts);
    Cache += "== " + std::string(Name) + " accesses " +
             std::to_string(Sim.getAccesses()) + " misses " +
             std::to_string(Sim.getMisses()) + "\n";
    appendExecResult(R, Cache);
  }
  EXPECT_EQ(test::renderHash(hash128(Suite)),
            "b124e591e7aedb05b253089948665b3a");
  EXPECT_EQ(test::renderHash(hash128(Corpus)),
            "38abb7d89210b29906bf6e63e3b3c58e");
  EXPECT_EQ(test::renderHash(hash128(Cache)),
            "0f9e2742b2bf4f1cf8a0d854a8f570d6");
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

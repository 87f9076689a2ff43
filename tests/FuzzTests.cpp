//===- tests/FuzzTests.cpp - mutation fuzzing of the frontend and IL reader ---===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzz tier: deterministic token-level mutations of random MiniC
/// programs, of printed IL, of saved profiles and of compile-server request
/// scripts, fed to the frontend, the IL reader, the batch pipeline, the
/// profile loader and the script reader. The contract under corruption is
/// narrow and absolute — every input either compiles cleanly or is rejected
/// with a rendered diagnostic; nothing may crash, hang (all runs are
/// step-limited), or silently accept garbage (whatever compiles must
/// still verify and execute within limits or trap cleanly).
///
/// Seed count: IMPACT_FUZZ_SEEDS (default 64). Each seed derives both a
/// generator seed and an independent mutation seed, so raising the count
/// widens coverage without re-running old cases differently.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "driver/BatchPipeline.h"
#include "driver/Compilation.h"
#include "driver/CompileServer.h"
#include "driver/Pipeline.h"
#include "driver/ServerScript.h"
#include "interp/Engine.h"
#include "interp/Interpreter.h"
#include "ir/IrPrinter.h"
#include "ir/IrReader.h"
#include "ir/IrVerifier.h"
#include "profile/ProfileIO.h"
#include "profile/Profiler.h"
#include "suite/Suite.h"
#include "vm/Vm.h"

#include "RandomProgram.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <string>

using namespace impact;

namespace {

/// Compiles a (possibly corrupted) source and enforces the no-crash /
/// no-hang / no-silent-acceptance contract. Returns true when it
/// compiled cleanly.
bool checkFrontendContract(const std::string &Source,
                           const std::string &Tag) {
  CompilationResult C =
      compileMiniC(Source, "fuzz", /*RequireMain=*/true);
  if (!C.Ok) {
    // Rejection must come with a diagnostic, never silently.
    EXPECT_FALSE(C.Errors.empty()) << Tag;
    return false;
  }
  // Whatever compiles must still be a structurally valid module...
  EXPECT_EQ(verifyModuleText(C.M), "") << Tag;
  // ...which the analyzer must take without crashing (its contract covers
  // every verifier-accepted shape, fuzz survivors included).
  analyzeModule(C.M, AnalysisOptions());
  // ...and run to a clean end state within a bounded step budget:
  // normal exit, a clean trap, or step-limit exhaustion. (The interpreter
  // cannot hang — the limit is the hang guard.)
  RunOptions Run;
  Run.StepLimit = 200000;
  ExecResult R = runProgram(C.M, Run);
  if (R.St == ExecResult::Status::Trapped) {
    EXPECT_FALSE(R.TrapMessage.empty()) << Tag;
  }
  // The bytecode VM is held to the walker's result on every fuzz
  // survivor, bit for bit — a mutant that compiles is exactly the kind of
  // weird-shape program the differential oracle must not miss.
  ExecResult VmR = runProgramVm(C.M, Run);
  EXPECT_EQ(describeResultDifference(R, VmR), "") << Tag;
  return true;
}

TEST(Fuzz, MutatedSourceNeverCrashesFrontend) {
  unsigned Accepted = 0, Rejected = 0;
  const unsigned Seeds = test::getFuzzSeedCount(/*Floor=*/1);
  for (unsigned Seed = 0; Seed != Seeds; ++Seed) {
    std::string Source = test::generateRandomProgram(Seed);
    std::string Mutated = test::mutateProgramText(Source, Seed * 31 + 7);
    std::string Tag = "seed=" + std::to_string(Seed);
    if (checkFrontendContract(Mutated, Tag))
      ++Accepted;
    else
      ++Rejected;
    if (::testing::Test::HasFatalFailure())
      return;
  }
  // The mutator must produce both outcomes across the corpus; all-accept
  // would mean it never breaks anything, all-reject that it only ever
  // shreds the program into trivially invalid text.
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(Accepted, 0u);
}

TEST(Fuzz, DoublyMutatedSourceNeverCrashesFrontend) {
  // A second, independent round of corruption reaches states a single
  // mutation batch cannot (e.g. re-breaking a still-valid neighborhood).
  const unsigned Seeds = test::getFuzzSeedCount(/*Floor=*/1);
  for (unsigned Seed = 0; Seed != Seeds; ++Seed) {
    std::string Source = test::generateRandomProgram(Seed);
    std::string M1 = test::mutateProgramText(Source, Seed ^ 0x5bd1e995u);
    std::string M2 = test::mutateProgramText(M1, Seed * 2654435761u + 1);
    checkFrontendContract(M2, "seed=" + std::to_string(Seed));
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

TEST(Fuzz, MutatedIlNeverCrashesReader) {
  const unsigned Seeds = test::getFuzzSeedCount(/*Floor=*/1);
  for (unsigned Seed = 0; Seed != Seeds; ++Seed) {
    std::string Source = test::generateRandomProgram(Seed);
    CompilationResult C = compileMiniC(Source, "fuzz");
    ASSERT_TRUE(C.Ok) << "seed=" << Seed;
    std::string Il = printModule(C.M);
    std::string Mutated = test::mutateProgramText(Il, Seed * 131 + 17);
    std::string Tag = "seed=" + std::to_string(Seed);

    IrReadResult R = parseModuleText(Mutated);
    if (!R.Ok) {
      EXPECT_FALSE(R.Error.empty()) << Tag;
      continue;
    }
    // Accepted IL must either verify or be rejected by the verifier with
    // a concrete message — silent structural corruption is the failure
    // mode this test exists to catch.
    std::string V = verifyModuleText(R.M);
    if (!V.empty())
      continue;
    // Verifier-accepted mutants must also analyze without crashing.
    analyzeModule(R.M, AnalysisOptions());
    RunOptions Run;
    Run.StepLimit = 200000;
    ExecResult E = runProgram(R.M, Run);
    if (E.St == ExecResult::Status::Trapped) {
      EXPECT_FALSE(E.TrapMessage.empty()) << Tag;
    }
    // Verifier-accepted IL mutants go through the VM too; any walker/VM
    // disagreement on a mutant is a failure of the fuzz tier.
    ExecResult VmR = runProgramVm(R.M, Run);
    EXPECT_EQ(describeResultDifference(E, VmR), "") << Tag;
  }
}

TEST(Fuzz, BatchAgreesWithSerialOnMutatedCorpus) {
  // The same mutated corpus through the full pipeline, serial vs 4 jobs:
  // per-unit success and failure classification must agree exactly, and
  // failures must be quarantined (the batch itself always completes).
  // The full pipeline is pricier: at most 16 seeds.
  unsigned Seeds = std::min(test::getFuzzSeedCount(/*Floor=*/1), 16u);
  std::vector<BatchJob> Jobs;
  for (unsigned Seed = 0; Seed != Seeds; ++Seed) {
    BatchJob Job;
    Job.Name = "fuzz" + std::to_string(Seed);
    Job.Source = test::mutateProgramText(test::generateRandomProgram(Seed),
                                         Seed * 977 + 3);
    Job.Inputs = {RunInput{"ab", ""}};
    Job.Options.Run.StepLimit = 200000;
    Jobs.push_back(std::move(Job));
  }

  BatchOptions Serial, Wide;
  Serial.Jobs = 1;
  Wide.Jobs = 4;
  BatchResult A = runBatchPipeline(Jobs, Serial);
  BatchResult B = runBatchPipeline(Jobs, Wide);
  ASSERT_EQ(A.Results.size(), Jobs.size());
  ASSERT_EQ(B.Results.size(), Jobs.size());
  for (size_t I = 0; I != Jobs.size(); ++I) {
    EXPECT_EQ(A.Results[I].Ok, B.Results[I].Ok) << Jobs[I].Name;
    EXPECT_EQ(A.Results[I].Error, B.Results[I].Error) << Jobs[I].Name;
    EXPECT_EQ(A.Results[I].Failure.Stage, B.Results[I].Failure.Stage)
        << Jobs[I].Name;
    EXPECT_EQ(A.Results[I].Failure.Reason, B.Results[I].Failure.Reason)
        << Jobs[I].Name;
    if (!A.Results[I].Ok) {
      EXPECT_FALSE(A.Results[I].Error.empty()) << Jobs[I].Name;
      EXPECT_EQ(A.Results[I].Failure.Unit, Jobs[I].Name);
    }
  }
  EXPECT_EQ(A.Failures.size(), B.Failures.size());

  // The same corpus measured by the bytecode VM: per-unit outcome,
  // failure classification, and every observable result must match the
  // walker batch exactly — on mutants, not just on well-behaved programs.
  std::vector<BatchJob> VmJobs = Jobs;
  for (BatchJob &Job : VmJobs)
    Job.Options.Engine = ExecEngine::Vm;
  BatchResult V = runBatchPipeline(VmJobs, Serial);
  ASSERT_EQ(V.Results.size(), Jobs.size());
  for (size_t I = 0; I != Jobs.size(); ++I) {
    EXPECT_EQ(A.Results[I].Ok, V.Results[I].Ok) << Jobs[I].Name;
    EXPECT_EQ(A.Results[I].Error, V.Results[I].Error) << Jobs[I].Name;
    EXPECT_EQ(A.Results[I].Failure.Stage, V.Results[I].Failure.Stage)
        << Jobs[I].Name;
    EXPECT_EQ(A.Results[I].Failure.Reason, V.Results[I].Failure.Reason)
        << Jobs[I].Name;
    EXPECT_EQ(A.Results[I].OutputsBefore, V.Results[I].OutputsBefore)
        << Jobs[I].Name;
    EXPECT_EQ(A.Results[I].OutputsAfter, V.Results[I].OutputsAfter)
        << Jobs[I].Name;
    EXPECT_TRUE(A.Results[I].ProfileBefore == V.Results[I].ProfileBefore)
        << Jobs[I].Name;
  }
}

/// saveProfile of every suite program's measured profile (two inputs
/// each, on the VM): the corpus the profile-loader cases mutate.
const std::vector<std::string> &getSuiteProfileTexts() {
  static const std::vector<std::string> Texts = [] {
    std::vector<std::string> Out;
    for (const BenchmarkSpec &B : getBenchmarkSuite()) {
      CompilationResult C = compileMiniC(B.Source, B.Name);
      EXPECT_TRUE(C.Ok) << B.Name;
      ProfileResult P = profileProgram(C.M, makeBenchmarkInputs(B, 2),
                                       RunOptions(), ExecEngine::Vm);
      EXPECT_TRUE(P.allRunsOk()) << B.Name;
      Out.push_back(saveProfile(P.Data));
    }
    return Out;
  }();
  return Texts;
}

/// Loads a (possibly corrupted) profile text and enforces the loader's
/// contract: it never throws, a rejection carries a diagnostic, and an
/// accepted text saves to a text that reloads equal. Returns the
/// diagnostic, or "" when the text was accepted.
std::string checkProfileLoaderContract(const std::string &Text,
                                       const std::string &Tag) {
  ProfileData P;
  std::string Error;
  bool Ok = false;
  try {
    Ok = loadProfile(Text, P, &Error);
  } catch (const std::exception &E) {
    ADD_FAILURE() << Tag << ": loadProfile threw " << E.what();
    return "threw";
  }
  if (!Ok) {
    EXPECT_FALSE(Error.empty()) << Tag;
    return Error;
  }
  ProfileData Reloaded;
  EXPECT_TRUE(loadProfile(saveProfile(P), Reloaded, &Error))
      << Tag << ": " << Error;
  EXPECT_TRUE(Reloaded == P) << Tag;
  return "";
}

/// The mutant of the suite profile that case \p Seed loads.
std::string mutateSuiteProfile(unsigned Seed) {
  const std::vector<std::string> &Texts = getSuiteProfileTexts();
  return test::mutateProgramText(Texts[Seed % Texts.size()],
                                 Seed * 613 + 5);
}

TEST(Fuzz, MutatedProfileNeverCrashesLoader) {
  unsigned Accepted = 0, Rejected = 0;
  const unsigned Seeds = test::getFuzzSeedCount(/*Floor=*/1);
  for (unsigned Seed = 0; Seed != Seeds; ++Seed) {
    std::string Tag = "seed=" + std::to_string(Seed);
    if (checkProfileLoaderContract(mutateSuiteProfile(Seed), Tag).empty())
      ++Accepted;
    else
      ++Rejected;
  }
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(Accepted, 0u);

  // Fixed cases whose mutant declares a section far beyond the entry
  // budget (the pool literal 2147483647 lands on the "sites" size in 8267
  // and 10649, on the "funcs" size in 10333): the loader must reject them
  // before allocating, whatever the seed count.
  for (unsigned Seed : {8267u, 10333u, 10649u}) {
    std::string Tag = "seed=" + std::to_string(Seed);
    std::string Error =
        checkProfileLoaderContract(mutateSuiteProfile(Seed), Tag);
    EXPECT_NE(Error.find("exceeds the budget"), std::string::npos)
        << Tag << ": " << Error;
  }
}

/// Replays a (possibly corrupted) request script against a fresh server
/// and enforces the script reader's contract: nothing escapes
/// runServerScript, and a rejected script names its offending line.
/// Returns true when the script ran to its end.
bool checkServerScriptContract(const std::string &Script,
                               const std::string &Tag) {
  ServerOptions Options;
  Options.Pipeline.Run.StepLimit = 200000;
  CompileServer Server(Options);
  ServerScriptResult R;
  try {
    R = runServerScript(Server, Script);
  } catch (const std::exception &E) {
    ADD_FAILURE() << Tag << ": runServerScript threw " << E.what();
    return false;
  }
  if (!R.Ok) {
    EXPECT_EQ(R.Error.rfind("line ", 0), 0u) << Tag << ": " << R.Error;
    return false;
  }
  return true;
}

TEST(Fuzz, MutatedServerScriptNeverCrashes) {
  // The server tier's request scripts: a full session (units, programs,
  // inputs, an edit, targeted and full recompiles, stats) and one with a
  // request-level failure.
  const std::string Scripts[] = {test::makeServerScript(/*WithStats=*/true),
                                 test::kDuplicateUnitScript};
  unsigned Ran = 0, Rejected = 0;
  const unsigned Seeds = test::getFuzzSeedCount(/*Floor=*/1);
  for (unsigned Seed = 0; Seed != Seeds; ++Seed) {
    std::string Mutant =
        test::mutateProgramText(Scripts[Seed % 2], Seed * 389 + 11);
    if (checkServerScriptContract(Mutant, "seed=" + std::to_string(Seed)))
      ++Ran;
    else
      ++Rejected;
  }
  EXPECT_GT(Ran, 0u);
  EXPECT_GT(Rejected, 0u);
}

TEST(Fuzz, MutatorIsDeterministicAndProductive) {
  for (unsigned Seed = 0; Seed != 8; ++Seed) {
    std::string Source = test::generateRandomProgram(Seed);
    std::string A = test::mutateProgramText(Source, 42 + Seed);
    std::string B = test::mutateProgramText(Source, 42 + Seed);
    EXPECT_EQ(A, B) << Seed;           // same seed, same corruption
    EXPECT_NE(A, Source) << Seed;      // never the identity
    EXPECT_NE(test::mutateProgramText(Source, 43 + Seed), A) << Seed;
  }
}

} // namespace

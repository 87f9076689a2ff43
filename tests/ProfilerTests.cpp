//===- tests/ProfilerTests.cpp - concurrent profiling equals serial --------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// profileProgram runs its inputs concurrently and folds each run into the
/// totals as it finishes. These tests hold it to a serial oracle written
/// here: one run per input, in input order, through runProgram /
/// runProgramVm, inferCounts in mincover mode, and ProfileData::accumulate.
/// Totals, outputs, failure strings and failure statuses must match bit
/// for bit over the suite, random programs and a program whose inputs
/// trap or exhaust the step limit mid-list, for every engine and
/// instrumentation mode. The runs with a shared sink (icache simulator,
/// range fact checker) stay serial; their sinks must see what a serial
/// loop shows them.
///
//===----------------------------------------------------------------------===//

#include "analysis/RangeAnalysis.h"
#include "cachesim/ICacheSim.h"
#include "interp/Engine.h"
#include "profile/MinCover.h"
#include "profile/Profiler.h"
#include "suite/Suite.h"
#include "vm/Vm.h"

#include "RandomProgram.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace impact;

namespace {

/// One input's serial runs, through each engine.
struct SerialRun {
  ExecResult Walk, Vm;
};

/// Runs every input, in input order, through the walker and the VM.
std::vector<SerialRun> runInOrder(const Module &M,
                                  const std::vector<RunInput> &Inputs,
                                  const RunOptions &Base,
                                  const MinCoverPlan *Plan) {
  VmProgram Compiled = compileToBytecode(M, Plan);
  std::vector<SerialRun> Runs;
  for (const RunInput &In : Inputs) {
    RunOptions Opts = Base;
    Opts.Input = In.Input;
    Opts.Input2 = In.Input2;
    Opts.MinCover = Plan;
    ExecResult Walk = runProgram(M, Opts);
    Runs.push_back({std::move(Walk), runProgramVm(Compiled, Opts)});
  }
  return Runs;
}

/// profileProgram's contract, spelled as the serial loop it replaces:
/// \p Runs' results for \p Engine, with failures numbered and totals
/// accumulated in input order.
ProfileResult foldInOrder(const Module &M, const std::vector<SerialRun> &Runs,
                          ExecEngine Engine, const MinCoverPlan *Plan) {
  ProfileResult Result;
  for (size_t I = 0; I != Runs.size(); ++I) {
    ExecResult R = Engine == ExecEngine::Vm ? Runs[I].Vm : Runs[I].Walk;
    if (Engine == ExecEngine::Both) {
      std::string Diff = describeResultDifference(R, Runs[I].Vm);
      if (!Diff.empty()) {
        R.St = ExecResult::Status::Trapped;
        R.TrapMessage = "engine divergence: " + Diff;
      }
    }
    if (!R.ok()) {
      Result.Failures.push_back("run " + std::to_string(I) + ": " +
                                R.TrapMessage);
      Result.RunFailures.push_back(
          {static_cast<unsigned>(I), R.St, R.TrapMessage});
    }
    Result.Data.accumulate(Plan ? inferCounts(M, *Plan, R.Stats) : R.Stats);
    Result.Outputs.push_back(std::move(R.Output));
  }
  return Result;
}

/// The same loop through \p Engine alone (walker or VM), for runs that
/// stream into a sink in \p Base.
ProfileResult profileInOrder(const Module &M,
                             const std::vector<RunInput> &Inputs,
                             const RunOptions &Base, ExecEngine Engine) {
  VmProgram Compiled = compileToBytecode(M);
  std::vector<SerialRun> Runs(Inputs.size());
  for (size_t I = 0; I != Inputs.size(); ++I) {
    RunOptions Opts = Base;
    Opts.Input = Inputs[I].Input;
    Opts.Input2 = Inputs[I].Input2;
    if (Engine == ExecEngine::Vm)
      Runs[I].Vm = runProgramVm(Compiled, Opts);
    else
      Runs[I].Walk = runProgram(M, Opts);
  }
  return foldInOrder(M, Runs, Engine, nullptr);
}

void expectSameProfile(const ProfileResult &Got, const ProfileResult &Want,
                       const std::string &Tag) {
  EXPECT_TRUE(Got.Data == Want.Data) << Tag << ": totals differ";
  EXPECT_EQ(Got.Outputs, Want.Outputs) << Tag;
  EXPECT_EQ(Got.Failures, Want.Failures) << Tag;
  ASSERT_EQ(Got.RunFailures.size(), Want.RunFailures.size()) << Tag;
  for (size_t I = 0; I != Got.RunFailures.size(); ++I) {
    EXPECT_EQ(Got.RunFailures[I].RunIndex, Want.RunFailures[I].RunIndex)
        << Tag;
    EXPECT_EQ(Got.RunFailures[I].Status, Want.RunFailures[I].Status) << Tag;
    EXPECT_EQ(Got.RunFailures[I].Message, Want.RunFailures[I].Message)
        << Tag;
  }
}

/// Checks profileProgram against the oracle for every engine and both
/// instrumentation modes; returns the oracle's failures (full mode).
std::vector<ProfileRunFailure>
expectMatchesOracle(const Module &M, const std::vector<RunInput> &Inputs,
                    const RunOptions &Base, const std::string &Tag) {
  std::vector<ProfileRunFailure> Failures;
  for (InstrumentMode Instrument :
       {InstrumentMode::Full, InstrumentMode::MinCover}) {
    MinCoverPlan Plan;
    const MinCoverPlan *P = nullptr;
    if (Instrument == InstrumentMode::MinCover) {
      Plan = buildMinCoverPlan(M);
      P = &Plan;
    }
    std::vector<SerialRun> Runs = runInOrder(M, Inputs, Base, P);
    for (ExecEngine Engine :
         {ExecEngine::Walker, ExecEngine::Vm, ExecEngine::Both}) {
      ProfileResult Want = foldInOrder(M, Runs, Engine, P);
      expectSameProfile(profileProgram(M, Inputs, Base, Engine, Instrument),
                        Want,
                        Tag + " " + getEngineName(Engine) + "/" +
                            getInstrumentModeName(Instrument));
      if (!P)
        Failures = Want.RunFailures;
    }
  }
  return Failures;
}

bool anyStepLimit(const std::vector<ProfileRunFailure> &Failures) {
  return std::any_of(Failures.begin(), Failures.end(),
                     [](const ProfileRunFailure &F) {
                       return F.Status == ExecResult::Status::StepLimitExceeded;
                     });
}

/// Moves the input that runs longest to the middle of \p Inputs and
/// returns a step limit one short of its run, so that input, and only
/// inputs as long, stop at the limit mid-list.
RunOptions moveLongestRunToMiddle(const Module &M,
                                  std::vector<RunInput> &Inputs) {
  uint64_t MaxSteps = 0;
  size_t Longest = 0;
  for (size_t I = 0; I != Inputs.size(); ++I) {
    RunOptions Opts;
    Opts.Input = Inputs[I].Input;
    Opts.Input2 = Inputs[I].Input2;
    ExecResult R = runProgram(M, Opts);
    EXPECT_TRUE(R.ok()) << R.TrapMessage;
    if (R.Stats.InstrCount > MaxSteps) {
      MaxSteps = R.Stats.InstrCount;
      Longest = I;
    }
  }
  RunInput Moved = Inputs[Longest];
  Inputs.erase(Inputs.begin() + static_cast<ptrdiff_t>(Longest));
  Inputs.insert(Inputs.begin() + static_cast<ptrdiff_t>(Inputs.size() / 2),
                Moved);
  RunOptions Base;
  Base.StepLimit = MaxSteps - 1;
  return Base;
}

/// \p Spec's first \p N inputs, each stream cut to its first 800
/// bytes: every engine and mode runs each input several times, and the
/// suite's programs all run such prefixes to completion.
std::vector<RunInput> shortInputs(const BenchmarkSpec &Spec, unsigned N) {
  std::vector<RunInput> Inputs = makeBenchmarkInputs(Spec, N);
  for (RunInput &In : Inputs) {
    In.Input.resize(std::min<size_t>(In.Input.size(), 800));
    In.Input2.resize(std::min<size_t>(In.Input2.size(), 800));
  }
  return Inputs;
}

TEST(ProfileConcurrency, SuiteMatchesSerialOracle) {
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    SCOPED_TRACE(Spec.Name);
    Module M = test::compileOk(Spec.Source);
    std::vector<RunInput> Inputs = shortInputs(Spec, 3);
    RunOptions Base = moveLongestRunToMiddle(M, Inputs);
    EXPECT_TRUE(anyStepLimit(expectMatchesOracle(M, Inputs, Base, Spec.Name)));
  }
}

TEST(ProfileConcurrency, RandomProgramsMatchSerialOracle) {
  for (uint64_t Seed = 0; Seed != 32; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Module M = test::compileOk(test::generateRandomProgram(Seed));
    if (::testing::Test::HasFailure())
      return;
    std::vector<RunInput> Inputs = {
        {"", ""}, {"a", ""}, {"hello world", ""}, {"0123456789", ""}};
    RunOptions Base = moveLongestRunToMiddle(M, Inputs);
    EXPECT_TRUE(anyStepLimit(
        expectMatchesOracle(M, Inputs, Base, "seed " + std::to_string(Seed))));
  }
}

/// Traps on 'd', spins forever on 'l', and otherwise calls through a few
/// helpers per input character.
const char *const kHazardProgram = R"MC(
extern int getchar();
extern int print_int(int v);

int twice(int x) { return x + x; }

int step(int c, int acc) {
  if (c == 'd') return acc / (c - 'd');
  while (c == 'l') acc = twice(acc) % 1000;
  return twice(acc) + c;
}

int main() {
  int c;
  int acc;
  acc = 1;
  c = getchar();
  while (c != -1) {
    acc = step(c, acc) % 100000;
    c = getchar();
  }
  print_int(acc);
  return 0;
}
)MC";

TEST(ProfileConcurrency, TrapAndStepLimitMidListMatchSerialOracle) {
  Module M = test::compileOk(kHazardProgram);
  std::vector<RunInput> Inputs = {{"abc", ""}, {"xyz", ""}, {"abd", ""},
                                  {"zz", ""},  {"al", ""},  {"qrstu", ""},
                                  {"dd", ""},  {"", ""}};
  RunOptions Base;
  Base.StepLimit = 100000;
  std::vector<ProfileRunFailure> Failures =
      expectMatchesOracle(M, Inputs, Base, "hazard");
  ASSERT_EQ(Failures.size(), 3u);
  EXPECT_EQ(Failures[0].RunIndex, 2u);
  EXPECT_EQ(Failures[0].Status, ExecResult::Status::Trapped);
  EXPECT_EQ(Failures[0].Message, "division by zero");
  EXPECT_EQ(Failures[1].RunIndex, 4u);
  EXPECT_EQ(Failures[1].Status, ExecResult::Status::StepLimitExceeded);
  EXPECT_EQ(Failures[2].RunIndex, 6u);
}

TEST(ProfileConcurrency, ICacheRunsKeepSerialMissCounters) {
  for (const char *Name : {"grep", "wc"}) {
    SCOPED_TRACE(Name);
    const BenchmarkSpec &Spec = *findBenchmark(Name);
    Module M = test::compileOk(Spec.Source);
    std::vector<RunInput> Inputs = shortInputs(Spec, 3);
    ICacheConfig Config;
    Config.CacheBytes = 1024;
    for (ExecEngine Engine : {ExecEngine::Walker, ExecEngine::Vm}) {
      ICacheSim Profiled(Config), Serial(Config);
      RunOptions Base;
      Base.ICache = &Profiled;
      ProfileResult Got = profileProgram(M, Inputs, Base, Engine);
      RunOptions SerialBase;
      SerialBase.ICache = &Serial;
      // The walker streams layout addresses, so it measures either way.
      ProfileResult Want =
          profileInOrder(M, Inputs, SerialBase, ExecEngine::Walker);
      expectSameProfile(Got, Want, getEngineName(Engine));
      EXPECT_GT(Profiled.getMisses(), 0u);
      EXPECT_EQ(Profiled.getAccesses(), Serial.getAccesses());
      EXPECT_EQ(Profiled.getMisses(), Serial.getMisses());
    }
  }
}

TEST(ProfileConcurrency, FactCheckRunsKeepSerialVerdicts) {
  const BenchmarkSpec &Spec = *findBenchmark("grep");
  Module M = test::compileOk(Spec.Source);
  std::vector<RunInput> Inputs = shortInputs(Spec, 3);
  ModuleRangeFacts Sound = computeModuleRangeFacts(M);
  // A false claim: every function's return value is exactly 12345.
  ModuleRangeFacts Wrong = Sound;
  for (FunctionRangeSummary &S : Wrong.Funcs)
    if (S.HasSummary)
      S.Ret = Interval::constant(12345);
  for (const ModuleRangeFacts *Facts : {&Sound, &Wrong})
    for (ExecEngine Engine : {ExecEngine::Walker, ExecEngine::Vm}) {
      RangeFactChecker Profiled(M, *Facts), Serial(M, *Facts);
      RunOptions Base;
      Base.FactCheck = &Profiled;
      ProfileResult Got = profileProgram(M, Inputs, Base, Engine);
      Base.FactCheck = &Serial;
      ProfileResult Want = profileInOrder(M, Inputs, Base, Engine);
      expectSameProfile(Got, Want, getEngineName(Engine));
      EXPECT_GT(Profiled.getChecksPerformed(), 0u);
      EXPECT_EQ(Profiled.getChecksPerformed(), Serial.getChecksPerformed());
      EXPECT_EQ(Profiled.getViolations(), Serial.getViolations());
      EXPECT_EQ(Profiled.ok(), Facts == &Sound);
    }
}

} // namespace

//===- tests/VmTests.cpp - bytecode VM unit tests -----------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the bytecode compiler (vm/Bytecode.h), the token-threaded
/// VM (vm/Vm.h), and engine selection (interp/Engine.h). The walking
/// interpreter is the oracle throughout: almost every test is phrased as
/// "the VM's ExecResult is bit-identical to the walker's", via
/// describeResultDifference. The whole-suite and randomized equivalence
/// runs live in tests/DifferentialTests.cpp; this file covers the parsing
/// surface, compile-time fusion, and the trap / step-limit edges one at a
/// time.
///
//===----------------------------------------------------------------------===//

#include "cachesim/ICacheSim.h"
#include "interp/Engine.h"
#include "vm/Bytecode.h"
#include "vm/Vm.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace impact;

namespace {

/// Runs \p M through the walker and through the VM, asserting the two
/// results are bit-identical; returns the walker's result for further
/// assertions.
ExecResult expectEnginesAgree(const Module &M, const RunOptions &Opts,
                              const std::string &Tag,
                              VmRunStats *Stats = nullptr) {
  ExecResult W = runProgram(M, Opts);
  VmProgram P = compileToBytecode(M);
  EXPECT_EQ(describeResultDifference(W, runProgramVm(P, Opts, Stats)), "")
      << Tag;
  return W;
}

//===----------------------------------------------------------------------===//
// Engine spelling: parseEngine / getEngineName
//===----------------------------------------------------------------------===//

TEST(EngineParse, AcceptsExactSpellings) {
  ExecEngine E = ExecEngine::Both;
  EXPECT_TRUE(parseEngine("walk", E));
  EXPECT_EQ(E, ExecEngine::Walker);
  EXPECT_TRUE(parseEngine("vm", E));
  EXPECT_EQ(E, ExecEngine::Vm);
  EXPECT_TRUE(parseEngine("both", E));
  EXPECT_EQ(E, ExecEngine::Both);
}

TEST(EngineParse, RejectsEverythingElse) {
  const char *const Bad[] = {"",       "WALK",   "Walk", "walker", "vm ",
                             " vm",    "Both",   "b",    "w",      "vmx",
                             "walk\n", "engine", "1",    "vm,walk"};
  for (const char *Text : Bad) {
    ExecEngine E = ExecEngine::Walker;
    std::string Diag;
    EXPECT_FALSE(parseEngine(Text, E, &Diag)) << "'" << Text << "'";
    EXPECT_NE(Diag.find("invalid engine"), std::string::npos)
        << "'" << Text << "': " << Diag;
    // A failed parse never clobbers the out-param.
    EXPECT_EQ(E, ExecEngine::Walker) << "'" << Text << "'";
  }
}

TEST(EngineParse, NamesRoundTrip) {
  for (ExecEngine E :
       {ExecEngine::Walker, ExecEngine::Vm, ExecEngine::Both}) {
    ExecEngine Back = ExecEngine::Walker;
    ASSERT_TRUE(parseEngine(getEngineName(E), Back)) << getEngineName(E);
    EXPECT_EQ(Back, E);
  }
}

//===----------------------------------------------------------------------===//
// describeResultDifference
//===----------------------------------------------------------------------===//

TEST(ResultDiff, IdenticalResultsAreEmpty) {
  Module M = test::compileOk(test::kCallHeavyProgram);
  RunOptions Opts;
  Opts.Input = "abc";
  ExecResult A = runProgram(M, Opts);
  ExecResult B = runProgram(M, Opts);
  EXPECT_EQ(describeResultDifference(A, B), "");
}

TEST(ResultDiff, ReportsFirstObservableField) {
  ExecResult A, B;
  B.ExitCode = 7;
  EXPECT_NE(describeResultDifference(A, B).find("exit"), std::string::npos);

  B = A;
  B.St = ExecResult::Status::Trapped;
  B.TrapMessage = "division by zero";
  EXPECT_NE(describeResultDifference(A, B).find("status"),
            std::string::npos);

  B = A;
  B.Output = "x";
  EXPECT_NE(describeResultDifference(A, B).find("output"),
            std::string::npos);

  B = A;
  B.Stats.InstrCount = 42;
  EXPECT_NE(describeResultDifference(A, B).find("InstrCount"),
            std::string::npos);

  B = A;
  A.Stats.SiteCounts = {0, 3};
  B.Stats.SiteCounts = {0, 4};
  EXPECT_NE(describeResultDifference(A, B).find("SiteCounts"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Bytecode compilation
//===----------------------------------------------------------------------===//

TEST(BytecodeCompile, StatsCoverEveryCompiledInstruction) {
  Module M = test::compileOk(test::kCallHeavyProgram);
  VmProgram P = compileToBytecode(M);

  ASSERT_EQ(P.Funcs.size(), M.Funcs.size());
  ASSERT_EQ(P.Callees.size(), M.Funcs.size());
  EXPECT_EQ(P.MainId, M.MainId);
  EXPECT_EQ(P.NumSites, M.NextSiteId);

  uint64_t IlTotal = 0;
  for (const Function &F : M.Funcs)
    if (!F.IsExternal && !F.Eliminated)
      IlTotal += F.size();
  EXPECT_EQ(P.Stats.IlInstrs, IlTotal);
  EXPECT_GT(P.Stats.VmInstrs, 0u);
  // Fusion only ever shrinks the instruction count.
  EXPECT_LE(P.Stats.VmInstrs, P.Stats.IlInstrs);
  EXPECT_GT(P.Stats.CodeWords, 0u);

  uint64_t Words = 0;
  for (const VmFunction &F : P.Funcs)
    Words += F.Code.size();
  EXPECT_EQ(P.Stats.CodeWords, Words);

  for (FuncId Id = 0; Id != static_cast<FuncId>(M.Funcs.size()); ++Id) {
    const Function &F = M.Funcs[Id];
    EXPECT_EQ(P.Funcs[Id].Compiled, !F.IsExternal && !F.Eliminated);
    EXPECT_EQ(P.Callees[Id].Name, F.Name);
    EXPECT_EQ(P.Callees[Id].NumParams, F.NumParams);
    EXPECT_EQ(P.Callees[Id].IsExternal, F.IsExternal);
    if (P.Funcs[Id].Compiled) {
      EXPECT_EQ(P.Funcs[Id].NumRegs, F.NumRegs);
      EXPECT_EQ(P.Funcs[Id].ActivationWords, F.getActivationWords());
    }
  }
}

TEST(BytecodeCompile, GlobalImageMatchesModuleLayout) {
  const char *Source = R"MC(
int a;
int b[3];
int main() { return a + b[1]; }
)MC";
  Module M = test::compileOk(Source);
  VmProgram P = compileToBytecode(M);
  EXPECT_EQ(P.GlobalImage.Words, M.getGlobalSegmentSize());
  // MiniC globals are zero-initialized; every word of the image is zero,
  // so the sparse image lists no nonzero word.
  EXPECT_TRUE(P.GlobalImage.Nonzero.empty());
}

TEST(BytecodeCompile, DisassemblerRendersEveryInstruction) {
  Module M = test::compileOk(test::kCallHeavyProgram);
  VmProgram P = compileToBytecode(M);
  const VmFunction &Main = P.Funcs[P.MainId];
  std::string Text = disassemble(Main);
  EXPECT_NE(Text.find("ret"), std::string::npos);
  size_t Lines = 0;
  for (char C : Text)
    Lines += C == '\n';
  EXPECT_GE(Lines, 1u);
  EXPECT_STREQ(getVmOpName(VmOp::CmpLtBr), "cmp_lt_br");
  EXPECT_STREQ(getVmOpName(VmOp::CallUser), "call_user");
}

//===----------------------------------------------------------------------===//
// Superinstructions: compile-time fusion + bit-exact execution
//===----------------------------------------------------------------------===//

TEST(Superinstructions, CmpBrFusesOnCompiledLoops) {
  // A counted loop compiles to cmp + cond_br, the compare-and-branch
  // fusion shape.
  const char *Source = R"MC(
int main() {
  int i;
  int sum;
  i = 0;
  sum = 0;
  while (i < 10) { sum = sum + i; i = i + 1; }
  return sum;
}
)MC";
  Module M = test::compileOk(Source);
  VmProgram P = compileToBytecode(M);
  EXPECT_GT(P.Stats.FusedCmpBr, 0u);

  VmRunStats Stats;
  ExecResult W = expectEnginesAgree(M, RunOptions(), "cmp_br loop", &Stats);
  EXPECT_TRUE(W.ok());
  EXPECT_EQ(W.ExitCode, 45);
  EXPECT_GT(Stats.FusedCmpBr, 0u);
  EXPECT_GT(Stats.getFusedStepFraction(), 0.0);
  EXPECT_LE(Stats.getFusedStepFraction(), 1.0);
  EXPECT_EQ(Stats.IlSteps, W.Stats.InstrCount);
}

TEST(Superinstructions, StepLimitExhaustsInsideFusedCmpBr) {
  // Every step limit up to the full run: some land between the compare
  // and the branch of a fused cmp_br pair, and every stop point must
  // agree with the walker bit for bit (status, InstrCount, OpcodeCounts).
  const char *Source = R"MC(
int main() {
  int i;
  i = 0;
  while (i < 3) { i = i + 1; }
  return i;
}
)MC";
  Module M = test::compileOk(Source);
  ASSERT_GT(compileToBytecode(M).Stats.FusedCmpBr, 0u);
  ExecResult Full = expectEnginesAgree(M, RunOptions(), "unlimited");
  ASSERT_TRUE(Full.ok());
  uint64_t Total = Full.Stats.InstrCount;
  for (uint64_t Limit = 0; Limit <= Total; ++Limit) {
    RunOptions Opts;
    Opts.StepLimit = Limit;
    ExecResult W =
        expectEnginesAgree(M, Opts, "limit=" + std::to_string(Limit));
    if (Limit < Total) {
      EXPECT_EQ(W.St, ExecResult::Status::StepLimitExceeded)
          << "limit=" << Limit;
    }
    EXPECT_EQ(W.Stats.InstrCount, Limit);
  }
}

//===----------------------------------------------------------------------===//
// Whole programs
//===----------------------------------------------------------------------===//

TEST(VmParity, AgreesWithWalkerOnRealPrograms) {
  const struct {
    const char *Name;
    const char *Source;
    const char *Input;
  } Cases[] = {
      {"call_heavy", test::kCallHeavyProgram, "abcde"},
      {"recursive", test::kRecursiveProgram, "abc"},
      {"pointer_call", test::kPointerCallProgram, "ab"},
  };
  for (const auto &C : Cases) {
    Module M = test::compileOk(C.Source);
    RunOptions Opts;
    Opts.Input = C.Input;
    expectEnginesAgree(M, Opts, C.Name);
  }
}

//===----------------------------------------------------------------------===//
// Trap and limit parity, one edge at a time
//===----------------------------------------------------------------------===//

TEST(VmTrapParity, DivisionAndRemainderByZero) {
  const char *Div = R"MC(
extern int getchar();
int main() { int c; c = getchar(); return 1 / (c + 1); }
)MC";
  const char *Rem = R"MC(
extern int getchar();
int main() { int c; c = getchar(); return 1 % (c + 1); }
)MC";
  for (const char *Source : {Div, Rem}) {
    Module M = test::compileOk(Source);
    ExecResult W = expectEnginesAgree(M, RunOptions(), "div/rem");
    EXPECT_EQ(W.St, ExecResult::Status::Trapped);
    EXPECT_NE(W.TrapMessage.find("by zero"), std::string::npos);
  }
}

TEST(VmTrapParity, OutOfBoundsAccess) {
  const char *Source = R"MC(
extern int getchar();
int arr[4];
int main() { int i; i = getchar(); return arr[(i & 1) + 1000000]; }
)MC";
  Module M = test::compileOk(Source);
  ExecResult W = expectEnginesAgree(M, RunOptions(), "oob");
  EXPECT_EQ(W.St, ExecResult::Status::Trapped);
}

TEST(VmTrapParity, StackOverflowOnDeepRecursion) {
  Module M = test::compileOk(test::kRecursiveProgram);
  RunOptions Opts;
  Opts.Input = "abcdefgh";
  Opts.StackWords = 256; // force overflow deep in the recursion
  ExecResult W = expectEnginesAgree(M, Opts, "stack overflow");
  EXPECT_EQ(W.St, ExecResult::Status::Trapped);
  EXPECT_NE(W.TrapMessage.find("stack"), std::string::npos);
}

TEST(VmTrapParity, StackOverflowAtDefaultBudget) {
  // ~1000 words per activation, 10000 deep: overflows the default
  // 4M-word budget, which both engines materialize only as frames push.
  const char *Source = R"MC(
extern int getchar();
int deep(int n) {
  int pad[1000];
  pad[999] = n;
  if (n == 0) return 0;
  return deep(n - 1) + pad[999];
}
int main() { return deep(10000 + getchar()); }
)MC";
  Module M = test::compileOk(Source);
  RunOptions Opts;
  ASSERT_EQ(Opts.StackWords, 1 << 22);
  ExecResult W = expectEnginesAgree(M, Opts, "default-budget overflow");
  ExecResult V = runProgramVm(compileToBytecode(M), Opts);
  EXPECT_EQ(W.St, ExecResult::Status::Trapped);
  EXPECT_EQ(V.St, ExecResult::Status::Trapped);
  EXPECT_EQ(W.TrapMessage, V.TrapMessage);
  EXPECT_NE(W.TrapMessage.find("control stack overflow"), std::string::npos);
  EXPECT_NE(W.TrapMessage.find("limit 4194304)"), std::string::npos);
  EXPECT_EQ(W.Stats.PeakStackWords, V.Stats.PeakStackWords);
  EXPECT_LE(W.Stats.PeakStackWords, Opts.StackWords);
  EXPECT_GT(W.Stats.PeakStackWords, Opts.StackWords - 2000);
}

TEST(VmTrapParity, ExitIntrinsicShortCircuits) {
  const char *Source = R"MC(
extern int exit(int code);
extern int putchar(int c);
int main() {
  putchar(65);
  exit(3);
  putchar(66);
  return 0;
}
)MC";
  Module M = test::compileOk(Source);
  ExecResult W = expectEnginesAgree(M, RunOptions(), "exit intrinsic");
  EXPECT_TRUE(W.ok());
  EXPECT_EQ(W.ExitCode, 3);
  EXPECT_EQ(W.Output, "A");
}

TEST(VmTrapParity, UnknownExternTrapsAtFirstCall) {
  const char *Source = R"MC(
extern int nosuchlibraryfn(int x);
int main() { return nosuchlibraryfn(1); }
)MC";
  Module M = test::compileOk(Source);
  ExecResult W = expectEnginesAgree(M, RunOptions(), "unknown extern");
  EXPECT_EQ(W.St, ExecResult::Status::Trapped);
}

TEST(VmTrapParity, HeapExhaustionTrapIsSticky) {
  // malloc past the heap limit poisons memory; like the walker, the VM
  // only observes the trap at the next Load/Store.
  const char *Source = R"MC(
extern int malloc(int words);
extern int putchar(int c);
int main() {
  int p;
  int i;
  i = 0;
  p = 0;
  while (i < 100000) { p = malloc(1000000); i = i + 1; }
  putchar(65);
  return p;
}
)MC";
  Module M = test::compileOk(Source);
  ExecResult W = expectEnginesAgree(M, RunOptions(), "heap exhaustion");
  EXPECT_FALSE(W.ok());
}

TEST(VmTrapParity, StepLimitSweepAcrossCallHeavyProgram) {
  // Fine sweep near zero (covers call entry, intrinsic calls, and
  // superinstruction boundaries), then coarse points further out.
  Module M = test::compileOk(test::kCallHeavyProgram);
  RunOptions Base;
  Base.Input = "ab";
  ExecResult Full = runProgram(M, Base);
  ASSERT_TRUE(Full.ok());
  std::vector<uint64_t> Limits;
  for (uint64_t L = 0; L <= 64; ++L)
    Limits.push_back(L);
  for (uint64_t L = 65; L < Full.Stats.InstrCount + 2; L += 37)
    Limits.push_back(L);
  for (uint64_t L : Limits) {
    RunOptions Opts = Base;
    Opts.StepLimit = L;
    expectEnginesAgree(M, Opts, "step limit " + std::to_string(L));
  }
}

//===----------------------------------------------------------------------===//
// Engine selection: runProgramWith / profileProgram
//===----------------------------------------------------------------------===//

TEST(EngineSelect, AllEnginesProduceTheWalkerResult) {
  Module M = test::compileOk(test::kCallHeavyProgram);
  RunOptions Opts;
  Opts.Input = "abcd";
  ExecResult W = runProgramWith(ExecEngine::Walker, M, Opts);
  ExecResult V = runProgramWith(ExecEngine::Vm, M, Opts);
  ExecResult B = runProgramWith(ExecEngine::Both, M, Opts);
  EXPECT_EQ(describeResultDifference(W, V), "");
  EXPECT_EQ(describeResultDifference(W, B), "");
  EXPECT_TRUE(W.ok());
}

TEST(EngineSelect, VmFallsBackToWalkerForICache) {
  // Only the walker streams layout addresses; engine=vm with an attached
  // ICacheSim must transparently use it, producing both the identical
  // ExecResult and the identical miss counters.
  Module M = test::compileOk(test::kCallHeavyProgram);
  ICacheConfig Config;
  ICacheSim WalkSim(Config), VmSim(Config);

  RunOptions Opts;
  Opts.Input = "abc";
  Opts.ICache = &WalkSim;
  ExecResult W = runProgramWith(ExecEngine::Walker, M, Opts);
  Opts.ICache = &VmSim;
  ExecResult V = runProgramWith(ExecEngine::Vm, M, Opts);

  EXPECT_EQ(describeResultDifference(W, V), "");
  EXPECT_GT(WalkSim.getAccesses(), 0u);
  EXPECT_EQ(WalkSim.getAccesses(), VmSim.getAccesses());
  EXPECT_EQ(WalkSim.getMisses(), VmSim.getMisses());
}

TEST(EngineSelect, ProfilesAreEngineInvariant) {
  Module M = test::compileOk(test::kCallHeavyProgram);
  std::vector<RunInput> Inputs = {{"a", ""}, {"abc", ""}, {"abcdef", ""}};
  ProfileResult W = profileProgram(M, Inputs, RunOptions(),
                                   ExecEngine::Walker);
  ProfileResult V = profileProgram(M, Inputs, RunOptions(), ExecEngine::Vm);
  ProfileResult B = profileProgram(M, Inputs, RunOptions(),
                                   ExecEngine::Both);
  ASSERT_TRUE(W.allRunsOk());
  EXPECT_TRUE(V.allRunsOk());
  EXPECT_TRUE(B.allRunsOk());
  EXPECT_TRUE(W.Data == V.Data);
  EXPECT_TRUE(W.Data == B.Data);
  EXPECT_EQ(W.Outputs, V.Outputs);
  EXPECT_EQ(W.Outputs, B.Outputs);
}

TEST(EngineSelect, ModuleWithoutMainTrapsIdentically) {
  Module M;
  M.Name = "nomain";
  ExecResult W = runProgram(M);
  ExecResult V = runProgramVm(compileToBytecode(M));
  EXPECT_EQ(describeResultDifference(W, V), "");
  EXPECT_EQ(W.St, ExecResult::Status::Trapped);
}

} // namespace

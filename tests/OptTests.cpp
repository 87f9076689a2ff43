//===- tests/OptTests.cpp - classic optimization pass tests -------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/ConstantFolding.h"
#include "opt/CopyPropagation.h"
#include "opt/DeadCodeElimination.h"
#include "opt/JumpOptimization.h"
#include "opt/PassManager.h"

#include "ir/IrVerifier.h"
#include "vm/Vm.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace impact;
using test::compileOk;

namespace {

size_t countOps(const Function &F, Opcode Op) {
  size_t N = 0;
  for (const BasicBlock &B : F.Blocks)
    for (const Instr &I : B.Instrs)
      N += I.Op == Op ? 1 : 0;
  return N;
}

/// Checks a pass preserves behaviour on a source program + input.
template <typename PassFn>
void expectPreserves(PassFn Pass, const char *Source,
                     const std::string &Input) {
  Module M = compileOk(Source);
  RunOptions Opts;
  Opts.Input = Input;
  ExecResult Before = runProgram(M, Opts);
  ASSERT_TRUE(Before.ok()) << Before.TrapMessage;
  Pass(M);
  ASSERT_EQ(verifyModuleText(M), "");
  ExecResult After = runProgram(M, Opts);
  ASSERT_TRUE(After.ok()) << After.TrapMessage;
  EXPECT_EQ(Before.Output, After.Output);
  EXPECT_EQ(Before.ExitCode, After.ExitCode);
  EXPECT_LE(After.Stats.InstrCount, Before.Stats.InstrCount)
      << "optimization should never execute more instructions";
}

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

TEST(ConstantFolding, FoldsArithmeticChains) {
  Module M = compileOk("int main() { return 2 + 3 * 4; }");
  EXPECT_TRUE(runConstantFolding(M));
  const Function &Main = M.getFunction(M.MainId);
  EXPECT_EQ(countOps(Main, Opcode::Add), 0u);
  EXPECT_EQ(countOps(Main, Opcode::Mul), 0u);
  EXPECT_EQ(runProgram(M).ExitCode, 14);
}

TEST(ConstantFolding, FoldsUnaryAndComparisons) {
  Module M = compileOk("int main() { return -(3) < 2; }");
  runConstantFolding(M);
  EXPECT_EQ(countOps(M.getFunction(M.MainId), Opcode::CmpLt), 0u);
  EXPECT_EQ(runProgram(M).ExitCode, 1);
}

TEST(ConstantFolding, BranchOnConstantBecomesJump) {
  Module M = compileOk("int main() { if (1) return 7; return 8; }");
  runConstantFolding(M);
  EXPECT_EQ(countOps(M.getFunction(M.MainId), Opcode::CondBr), 0u);
  EXPECT_EQ(runProgram(M).ExitCode, 7);
}

TEST(ConstantFolding, PreservesDivisionByZeroTrap) {
  Module M = compileOk("int main() { return 1 / 0; }");
  runConstantFolding(M);
  ExecResult R = runProgram(M);
  EXPECT_EQ(R.St, ExecResult::Status::Trapped)
      << "the fold must not erase the runtime trap";
}

/// A dead div/rem still traps: neither DCE alone nor the whole pipeline
/// may delete the trap with the unused result, on either engine.
void expectDeadTrapSurvives(const char *Source, const std::string &Trap) {
  OptOptions DceOnly;
  ASSERT_TRUE(parseOptPasses("dce", DceOnly, nullptr));
  OptOptions All;
  ASSERT_TRUE(parseOptPasses("all", All, nullptr));
  ASSERT_EQ(runProgram(compileOk(Source)).TrapMessage, Trap);
  for (const OptOptions &Opts : {DceOnly, All}) {
    Module M = compileOk(Source);
    runOptimizationPipeline(M, Opts);
    ASSERT_EQ(verifyModuleText(M), "");
    for (const ExecResult &R : {runProgram(M), runProgramVm(M)}) {
      EXPECT_EQ(R.St, ExecResult::Status::Trapped)
          << renderOptPasses(Opts) << ": exit " << R.ExitCode;
      EXPECT_EQ(R.TrapMessage, Trap) << renderOptPasses(Opts);
    }
  }
}

TEST(DeadCodeElimination, KeepsDeadDivisionByZero) {
  expectDeadTrapSurvives(
      "int main() { int a; int b; a = 0; b = 5 / a; return 7; }",
      "division by zero");
}

TEST(DeadCodeElimination, KeepsDeadRemainderByZeroInCallee) {
  expectDeadTrapSurvives("int f(int x) { int r; r = 5 % x; return 3; }"
                         "int main() { return f(0); }",
                         "remainder by zero");
}

TEST(DeadCodeElimination, KeepsDeadDivisionOverflow) {
  expectDeadTrapSurvives("int main() { int m; int a; int b;"
                         "m = -9223372036854775807 - 1; a = -1;"
                         "b = m / a; return 7; }",
                         "division overflow");
}

TEST(DeadCodeElimination, KeepsDeadDivisionInLoop) {
  expectDeadTrapSurvives("int main() { int i; int b;"
                         "for (i = 0; i < 3; i = i + 1) b = 100 / (i - 1);"
                         "return i; }",
                         "division by zero");
}

TEST(ConstantFolding, DoesNotFoldAcrossCalls) {
  // The constant tracker must reset knowledge killed by redefinition.
  Module M = compileOk("extern int getchar();"
                       "int main() { int x; x = 5; x = getchar();"
                       "return x + 0; }");
  runConstantFolding(M);
  RunOptions Opts;
  Opts.Input = "A";
  EXPECT_EQ(runProgram(M, Opts).ExitCode, 'A');
}

TEST(ConstantFolding, PreservesBehaviour) {
  expectPreserves([](Module &M) { runConstantFolding(M); },
                  test::kCallHeavyProgram, "hello world");
}

//===----------------------------------------------------------------------===//
// Jump optimization
//===----------------------------------------------------------------------===//

TEST(JumpOptimization, RemovesUnreachableBlocks) {
  Module M = compileOk("int main() { return 1; return 2; }");
  size_t Before = M.getFunction(M.MainId).Blocks.size();
  runJumpOptimization(M);
  EXPECT_LT(M.getFunction(M.MainId).Blocks.size(), Before);
  EXPECT_EQ(verifyModuleText(M), "");
  EXPECT_EQ(runProgram(M).ExitCode, 1);
}

TEST(JumpOptimization, CollapsesStraightLineChains) {
  Module M = compileOk(
      "int main() { int x; x = 1; { x = x + 1; } { x = x + 2; } return x; }");
  runJumpOptimization(M);
  // Everything is straight-line: a single block should remain.
  EXPECT_EQ(M.getFunction(M.MainId).Blocks.size(), 1u);
  EXPECT_EQ(runProgram(M).ExitCode, 4);
}

TEST(JumpOptimization, ThreadsJumpChains) {
  // Build f manually: bb0 -> bb1 -> bb2 -> ret.
  Module M;
  FuncId Id = M.addFunction("main", 0, false, false);
  Function &F = M.getFunction(Id);
  BlockId B0 = F.addBlock(), B1 = F.addBlock(), B2 = F.addBlock(),
          B3 = F.addBlock();
  Reg R = F.addReg();
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(R, 5));
  F.getBlock(B0).Instrs.push_back(Instr::makeJump(B1));
  F.getBlock(B1).Instrs.push_back(Instr::makeJump(B2));
  F.getBlock(B2).Instrs.push_back(Instr::makeJump(B3));
  F.getBlock(B3).Instrs.push_back(Instr::makeRet(R));
  M.MainId = Id;
  ASSERT_EQ(verifyModuleText(M), "");
  runJumpOptimization(F);
  EXPECT_EQ(F.Blocks.size(), 1u);
  EXPECT_EQ(runProgram(M).ExitCode, 5);
}

TEST(JumpOptimization, CondBrSameTargetsBecomesJump) {
  Module M;
  FuncId Id = M.addFunction("main", 0, false, false);
  Function &F = M.getFunction(Id);
  BlockId B0 = F.addBlock(), B1 = F.addBlock();
  Reg R = F.addReg();
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(R, 3));
  F.getBlock(B0).Instrs.push_back(Instr::makeCondBr(R, B1, B1));
  F.getBlock(B1).Instrs.push_back(Instr::makeRet(R));
  M.MainId = Id;
  runJumpOptimization(F);
  EXPECT_EQ(countOps(F, Opcode::CondBr), 0u);
  EXPECT_EQ(runProgram(M).ExitCode, 3);
}

TEST(JumpOptimization, InfiniteLoopSurvives) {
  Module M = compileOk("int main() { while (1) { } return 0; }");
  runConstantFolding(M);
  runJumpOptimization(M);
  EXPECT_EQ(verifyModuleText(M), "");
  RunOptions Opts;
  Opts.StepLimit = 1000;
  EXPECT_EQ(runProgram(M, Opts).St, ExecResult::Status::StepLimitExceeded);
}

TEST(JumpOptimization, PreservesBehaviour) {
  expectPreserves([](Module &M) { runJumpOptimization(M); },
                  test::kCallHeavyProgram, "jump around");
}

//===----------------------------------------------------------------------===//
// Copy propagation
//===----------------------------------------------------------------------===//

TEST(CopyPropagation, DropsSelfMoves) {
  Module M;
  FuncId Id = M.addFunction("main", 0, false, false);
  Function &F = M.getFunction(Id);
  BlockId B = F.addBlock();
  Reg R = F.addReg();
  F.getBlock(B).Instrs.push_back(Instr::makeLdImm(R, 1));
  F.getBlock(B).Instrs.push_back(Instr::makeMov(R, R));
  F.getBlock(B).Instrs.push_back(Instr::makeRet(R));
  M.MainId = Id;
  EXPECT_TRUE(runCopyPropagation(F));
  EXPECT_EQ(countOps(F, Opcode::Mov), 0u);
  EXPECT_EQ(runProgram(M).ExitCode, 1);
}

TEST(CopyPropagation, ForwardsThroughCopies) {
  Module M;
  FuncId Id = M.addFunction("main", 0, false, false);
  Function &F = M.getFunction(Id);
  BlockId B = F.addBlock();
  Reg A = F.addReg(), C = F.addReg(), D = F.addReg();
  F.getBlock(B).Instrs.push_back(Instr::makeLdImm(A, 9));
  F.getBlock(B).Instrs.push_back(Instr::makeMov(C, A));
  F.getBlock(B).Instrs.push_back(Instr::makeBinary(Opcode::Add, D, C, C));
  F.getBlock(B).Instrs.push_back(Instr::makeRet(D));
  M.MainId = Id;
  EXPECT_TRUE(runCopyPropagation(F));
  // The add now reads A directly.
  EXPECT_EQ(F.Blocks[0].Instrs[2].Src1, A);
  EXPECT_EQ(F.Blocks[0].Instrs[2].Src2, A);
  EXPECT_EQ(runProgram(M).ExitCode, 18);
}

TEST(CopyPropagation, StopsAtSourceRedefinition) {
  Module M;
  FuncId Id = M.addFunction("main", 0, false, false);
  Function &F = M.getFunction(Id);
  BlockId B = F.addBlock();
  Reg A = F.addReg(), C = F.addReg();
  F.getBlock(B).Instrs.push_back(Instr::makeLdImm(A, 1));
  F.getBlock(B).Instrs.push_back(Instr::makeMov(C, A));
  F.getBlock(B).Instrs.push_back(Instr::makeLdImm(A, 2)); // kills the copy
  F.getBlock(B).Instrs.push_back(Instr::makeRet(C));
  M.MainId = Id;
  runCopyPropagation(F);
  EXPECT_EQ(F.Blocks[0].Instrs.back().Src1, C)
      << "the use of C must NOT be rewritten to the redefined A";
  EXPECT_EQ(runProgram(M).ExitCode, 1);
}

TEST(CopyPropagation, PreservesBehaviour) {
  expectPreserves([](Module &M) { runCopyPropagation(M); },
                  test::kCallHeavyProgram, "copy cat");
}

//===----------------------------------------------------------------------===//
// Dead code elimination
//===----------------------------------------------------------------------===//

TEST(DeadCodeElimination, RemovesUnusedPureDefs) {
  Module M;
  FuncId Id = M.addFunction("main", 0, false, false);
  Function &F = M.getFunction(Id);
  BlockId B = F.addBlock();
  Reg A = F.addReg(), C = F.addReg(), D = F.addReg();
  F.getBlock(B).Instrs.push_back(Instr::makeLdImm(A, 1));
  F.getBlock(B).Instrs.push_back(Instr::makeLdImm(C, 2)); // dead
  F.getBlock(B).Instrs.push_back(Instr::makeBinary(Opcode::Add, D, A, A));
  F.getBlock(B).Instrs.push_back(Instr::makeRet(D));
  M.MainId = Id;
  EXPECT_TRUE(runDeadCodeElimination(F));
  EXPECT_EQ(F.Blocks[0].Instrs.size(), 3u);
  (void)C;
}

TEST(DeadCodeElimination, CascadesThroughChains) {
  Module M;
  FuncId Id = M.addFunction("main", 0, false, false);
  Function &F = M.getFunction(Id);
  BlockId B = F.addBlock();
  Reg A = F.addReg(), C = F.addReg(), D = F.addReg(), E = F.addReg();
  // A feeds C feeds D; none used by the ret.
  F.getBlock(B).Instrs.push_back(Instr::makeLdImm(A, 1));
  F.getBlock(B).Instrs.push_back(Instr::makeBinary(Opcode::Add, C, A, A));
  F.getBlock(B).Instrs.push_back(Instr::makeBinary(Opcode::Mul, D, C, C));
  F.getBlock(B).Instrs.push_back(Instr::makeLdImm(E, 0));
  F.getBlock(B).Instrs.push_back(Instr::makeRet(E));
  M.MainId = Id;
  runDeadCodeElimination(F);
  EXPECT_EQ(F.Blocks[0].Instrs.size(), 2u) << "whole chain removed";
}

TEST(DeadCodeElimination, KeepsCallsAndStores) {
  Module M = compileOk("extern int putchar(int c);"
                       "int g;"
                       "int main() { putchar('x'); g = 3; return 0; }");
  runDeadCodeElimination(M);
  ExecResult R = test::runOk(M);
  EXPECT_EQ(R.Output, "x");
}

TEST(DeadCodeElimination, PreservesBehaviour) {
  expectPreserves([](Module &M) { runDeadCodeElimination(M); },
                  test::kCallHeavyProgram, "dead code");
}

//===----------------------------------------------------------------------===//
// Pipeline
//===----------------------------------------------------------------------===//

TEST(PassManager, PipelineReachesFixpoint) {
  Module M = compileOk("int main() { int x; x = 2 + 3; int y; y = x;"
                       "return y * 1 + 0 * 7; }");
  EXPECT_TRUE(runOptimizationPipeline(M));
  EXPECT_EQ(verifyModuleText(M), "");
  EXPECT_EQ(runProgram(M).ExitCode, 5);
  // A second run must find nothing left to do.
  EXPECT_FALSE(runOptimizationPipeline(M));
}

TEST(PassManager, RespectsDisabledPasses) {
  Module M = compileOk("int main() { return 1 + 2; }");
  OptOptions Opts;
  Opts.ConstantFolding = false;
  Opts.CopyPropagation = false;
  Opts.DeadCodeElimination = false;
  Opts.JumpOptimization = false;
  EXPECT_FALSE(runOptimizationPipeline(M, Opts));
}

TEST(PassManager, ShrinksBenchmarkPrograms) {
  Module M = compileOk(test::kCallHeavyProgram);
  size_t Before = M.size();
  runOptimizationPipeline(M);
  EXPECT_LE(M.size(), Before);
  EXPECT_EQ(verifyModuleText(M), "");
}

TEST(PassManager, PreservesBehaviourOnPointerProgram) {
  expectPreserves([](Module &M) { runOptimizationPipeline(M); },
                  test::kPointerCallProgram, "mixed input 123");
}

TEST(PassManager, PreservesBehaviourOnRecursiveProgram) {
  expectPreserves([](Module &M) { runOptimizationPipeline(M); },
                  test::kRecursiveProgram, "abcdefgh");
}

} // namespace

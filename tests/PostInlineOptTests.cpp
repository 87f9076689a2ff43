//===- tests/PostInlineOptTests.cpp - LICM and pass-manager tests -------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The post-inline cleanup pass (opt/LoopInvariantCodeMotion.h) and the
/// loop analysis it rides on (analysis/LoopInfo.h). Positive transforms,
/// the negative fixtures the pass must refuse (trap-capable hoists,
/// loads, irreducible loops), and the PassManager plumbing
/// (parseOptPasses, renderOptPasses).
///
//===----------------------------------------------------------------------===//

#include "opt/LoopInvariantCodeMotion.h"
#include "opt/PassManager.h"

#include "analysis/LoopInfo.h"
#include "ir/IrPrinter.h"
#include "ir/IrVerifier.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace impact;
using test::compileOk;

namespace {

/// Loop depth of the block holding the first \p Op instruction, or -1 when
/// the function has none.
int depthOfFirst(const Function &F, Opcode Op) {
  std::vector<unsigned> Depth = computeLoopDepths(F);
  for (size_t B = 0; B != F.Blocks.size(); ++B)
    for (const Instr &I : F.Blocks[B].Instrs)
      if (I.Op == Op)
        return static_cast<int>(Depth[B]);
  return -1;
}

/// Checks a pass preserves behaviour on a source program + input, and
/// leaves a verifier-clean module (operand arity, terminator placement,
/// target validity — the structural contract every rewrite must keep).
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
}

//===----------------------------------------------------------------------===//
// Loop-invariant code motion
//===----------------------------------------------------------------------===//

const char *const kInvariantMulLoop =
    "extern int getchar();"
    "int main() { int a; int b; int n; int i; int s;"
    "a = getchar(); b = getchar(); n = getchar(); s = 0;"
    "for (i = 0; i < n; i++) { s = s + a * b; }"
    "return s; }";

TEST(Licm, HoistsInvariantMultiplyOutOfLoop) {
  Module M = compileOk(kInvariantMulLoop);
  Function &Main = M.getFunction(M.MainId);
  ASSERT_GE(depthOfFirst(Main, Opcode::Mul), 1)
      << "fixture: the multiply starts inside the loop";
  RunOptions Opts;
  Opts.Input = "abc";
  ExecResult Before = runProgram(M, Opts);
  ASSERT_TRUE(Before.ok());

  EXPECT_TRUE(runLoopInvariantCodeMotion(Main));
  EXPECT_EQ(depthOfFirst(Main, Opcode::Mul), 0)
      << "a * b is invariant and must move to loop depth 0";
  ASSERT_EQ(verifyModuleText(M), "");
  ExecResult After = runProgram(M, Opts);
  ASSERT_TRUE(After.ok());
  EXPECT_EQ(Before.ExitCode, After.ExitCode);
  EXPECT_LT(After.Stats.InstrCount, Before.Stats.InstrCount)
      << "99 loop iterations each saved the multiply";
}

TEST(Licm, LeavesTrappingDivideInLoop) {
  // a / b traps when b is zero; the loop may run zero iterations, so
  // hoisting the divide would introduce a trap the program never had.
  Module M = compileOk("extern int getchar();"
                       "int main() { int a; int b; int n; int i; int s;"
                       "a = getchar(); b = getchar(); n = getchar(); s = 0;"
                       "for (i = 0; i < n; i++) { s = s + a / b; }"
                       "return s; }");
  Function &Main = M.getFunction(M.MainId);
  ASSERT_GE(depthOfFirst(Main, Opcode::Div), 1);
  runLoopInvariantCodeMotion(Main);
  EXPECT_GE(depthOfFirst(Main, Opcode::Div), 1)
      << "trap-capable instructions must never be hoisted";
  ASSERT_EQ(verifyModuleText(M), "");
}

TEST(Licm, LeavesLoadsInLoop) {
  // g never changes here, but LICM has no alias analysis: Load must stay
  // put. (The GlobalAddr feeding it is pure and may move.)
  Module M = compileOk("extern int getchar();"
                       "int g;"
                       "int main() { int n; int i; int s;"
                       "g = 5; n = getchar(); s = 0;"
                       "for (i = 0; i < n; i++) { s = s + g; }"
                       "return s; }");
  Function &Main = M.getFunction(M.MainId);
  ASSERT_GE(depthOfFirst(Main, Opcode::Load), 1);
  runLoopInvariantCodeMotion(Main);
  EXPECT_GE(depthOfFirst(Main, Opcode::Load), 1)
      << "memory reads must never be hoisted";
  ASSERT_EQ(verifyModuleText(M), "");
  RunOptions Opts;
  Opts.Input = "\x03";
  EXPECT_EQ(runProgram(M, Opts).ExitCode, 15);
}

TEST(Licm, ZeroTripLoopStaysCorrect) {
  // n == 0: the hoisted multiply executes once in the preheader even
  // though the body never ran — legal only because it cannot trap.
  Module M = compileOk(kInvariantMulLoop);
  runLoopInvariantCodeMotion(M);
  ASSERT_EQ(verifyModuleText(M), "");
  RunOptions Opts;
  Opts.Input = ""; // getchar() yields EOF: n = -1, zero iterations
  ExecResult R = runProgram(M, Opts);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(Licm, IrreducibleLoopIsLeftAlone) {
  // Two-entry loop {B1, B2}: B0 branches into the middle of the cycle, so
  // no preheader placement is sound and the pass must refuse.
  Module M;
  FuncId Id = M.addFunction("main", 0, false, false);
  Function &F = M.getFunction(Id);
  BlockId B0 = F.addBlock(), B1 = F.addBlock(), B2 = F.addBlock(),
          B3 = F.addBlock();
  Reg C = F.addReg(), A = F.addReg(), T = F.addReg();
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(C, 0));
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(A, 9));
  F.getBlock(B0).Instrs.push_back(Instr::makeCondBr(C, B1, B2));
  F.getBlock(B1).Instrs.push_back(
      Instr::makeBinary(Opcode::Add, T, A, A)); // invariant, but stuck
  F.getBlock(B1).Instrs.push_back(Instr::makeCondBr(C, B2, B3));
  F.getBlock(B2).Instrs.push_back(Instr::makeJump(B1));
  F.getBlock(B3).Instrs.push_back(Instr::makeRet(A));
  M.MainId = Id;
  ASSERT_EQ(verifyModuleText(M), "");

  LoopInfo Info = computeLoopInfo(F);
  ASSERT_EQ(Info.Loops.size(), 1u);
  EXPECT_FALSE(Info.Loops[0].Reducible);

  std::string Before = printModule(M);
  EXPECT_FALSE(runLoopInvariantCodeMotion(F));
  EXPECT_EQ(printModule(M), Before);
}

TEST(Licm, PreservesBehaviour) {
  expectPreserves([](Module &M) { runLoopInvariantCodeMotion(M); },
                  test::kCallHeavyProgram, "hello world");
}

//===----------------------------------------------------------------------===//
// LoopInfo
//===----------------------------------------------------------------------===//

TEST(LoopInfo, NestedLoopsFormAParentChain) {
  Module M = compileOk("extern int putchar(int c);"
                       "int main() { int i; int j; int k;"
                       "for (i = 0; i < 3; i++)"
                       "  for (j = 0; j < 3; j++)"
                       "    for (k = 0; k < 3; k++) putchar('x');"
                       "return 0; }");
  LoopInfo Info = computeLoopInfo(M.getFunction(M.MainId));
  ASSERT_EQ(Info.Loops.size(), 3u);
  // Parents precede children, depths stack, and every natural loop from
  // structured source is reducible.
  unsigned MaxDepth = 0;
  for (const Loop &L : Info.Loops) {
    EXPECT_TRUE(L.Reducible);
    if (L.Parent >= 0) {
      EXPECT_LT(static_cast<size_t>(L.Parent), Info.Loops.size());
      EXPECT_EQ(Info.Loops[L.Parent].Depth + 1, L.Depth);
      EXPECT_TRUE(Info.Loops[L.Parent].contains(L.Header))
          << "a child loop lives inside its parent";
    } else {
      EXPECT_EQ(L.Depth, 1u);
    }
    MaxDepth = std::max(MaxDepth, L.Depth);
  }
  EXPECT_EQ(MaxDepth, 3u);
}

TEST(LoopInfo, DepthsAreUncapped) {
  // Five-deep nest: the old per-consumer implementations capped depth at
  // 4 (MinCover hardcoded, the estimator via its option default); the
  // shared analysis must report the true nesting.
  Module M = compileOk("extern int putchar(int c);"
                       "int main() { int a; int b; int c; int d; int e;"
                       "for (a = 0; a < 2; a++)"
                       " for (b = 0; b < 2; b++)"
                       "  for (c = 0; c < 2; c++)"
                       "   for (d = 0; d < 2; d++)"
                       "    for (e = 0; e < 2; e++) putchar('x');"
                       "return 0; }");
  const Function &Main = M.getFunction(M.MainId);
  std::vector<unsigned> Depth = computeLoopDepths(Main);
  unsigned MaxDepth = 0;
  for (unsigned D : Depth)
    MaxDepth = std::max(MaxDepth, D);
  EXPECT_EQ(MaxDepth, 5u);
  LoopInfo Info = computeLoopInfo(Main);
  EXPECT_EQ(Info.Loops.size(), 5u);
}

//===----------------------------------------------------------------------===//
// PassManager plumbing
//===----------------------------------------------------------------------===//

TEST(PassManager, ParseOptPassesGrammar) {
  OptOptions O;
  std::string Error;

  ASSERT_TRUE(parseOptPasses("all", O, &Error));
  EXPECT_TRUE(O.LoopInvariantCodeMotion);
  EXPECT_TRUE(O.TailRecursionElimination);

  ASSERT_TRUE(parseOptPasses("tre,licm", O, &Error));
  EXPECT_TRUE(O.TailRecursionElimination);
  EXPECT_TRUE(O.LoopInvariantCodeMotion);
  EXPECT_FALSE(O.DeadCodeElimination);
  EXPECT_FALSE(O.ConstantFolding) << "positive specs start from nothing";

  ASSERT_TRUE(parseOptPasses("all,-licm", O, &Error));
  EXPECT_FALSE(O.LoopInvariantCodeMotion);
  EXPECT_TRUE(O.TailRecursionElimination);

  ASSERT_TRUE(parseOptPasses("-tre", O, &Error));
  EXPECT_FALSE(O.TailRecursionElimination);
  EXPECT_TRUE(O.ConstantFolding) << "negative-only specs start from all";

  EXPECT_FALSE(parseOptPasses("tre,bogus", O, &Error));
  EXPECT_NE(Error.find("bogus"), std::string::npos);
  EXPECT_NE(Error.find("licm"), std::string::npos)
      << "the error lists the valid names";

  // Range facts are an analysis, not an optimizer input, and the
  // peephole pass is deleted: neither is a pass name.
  OptOptions Before = O;
  for (std::string Name : {"ranges", "peephole"}) {
    EXPECT_FALSE(parseOptPasses(Name, O, &Error));
    EXPECT_NE(Error.find("unknown optimization pass '" + Name + "'"),
              std::string::npos)
        << Error;
    EXPECT_TRUE(O == Before)
        << "a rejected spec leaves the options untouched";
  }
}

TEST(PassManager, RenderOptPassesInvertsParse) {
  OptOptions O;
  std::string Error;
  ASSERT_TRUE(parseOptPasses("fold,tre,licm", O, &Error));
  EXPECT_EQ(renderOptPasses(O), "fold,tre,licm");
  ASSERT_TRUE(parseOptPasses(
      "-fold,-jump,-copy,-dce,-tre,-licm", O, &Error));
  EXPECT_EQ(renderOptPasses(O), "none");
}

TEST(PassManager, FullPipelineWithNewPassesPreservesBehaviour) {
  OptOptions O;
  std::string Error;
  ASSERT_TRUE(parseOptPasses("all", O, &Error));
  for (const char *Source :
       {test::kCallHeavyProgram, test::kRecursiveProgram,
        test::kPointerCallProgram, kInvariantMulLoop}) {
    Module M = compileOk(Source);
    RunOptions Opts;
    Opts.Input = "abc xyz";
    ExecResult Before = runProgram(M, Opts);
    ASSERT_TRUE(Before.ok()) << Before.TrapMessage;
    runOptimizationPipeline(M, O);
    ASSERT_EQ(verifyModuleText(M), "");
    ExecResult After = runProgram(M, Opts);
    ASSERT_TRUE(After.ok()) << After.TrapMessage;
    EXPECT_EQ(Before.Output, After.Output);
    EXPECT_EQ(Before.ExitCode, After.ExitCode);
    EXPECT_LE(After.Stats.InstrCount, Before.Stats.InstrCount)
        << "the widened pipeline must not execute more instructions";
  }
}

} // namespace

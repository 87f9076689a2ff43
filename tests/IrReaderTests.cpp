//===- tests/IrReaderTests.cpp - textual IL round-trip tests ------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IrReader.h"

#include "core/DeadFunctionElimination.h"
#include "core/InlinePass.h"
#include "ir/IrPrinter.h"
#include "ir/IrVerifier.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace impact;
using test::compileOk;

namespace {

/// print -> parse -> print must be a fixpoint, and the reparsed module
/// must verify and behave identically.
void expectRoundTrip(const Module &M, const std::string &Input = "") {
  std::string Text = printModule(M);
  IrReadResult R = parseModuleText(Text);
  ASSERT_TRUE(R.Ok) << R.Error << "\nin:\n" << Text;
  EXPECT_EQ(printModule(R.M), Text);
  EXPECT_EQ(verifyModuleText(R.M), "");
  EXPECT_EQ(R.M.NextSiteId, M.NextSiteId);
  EXPECT_EQ(R.M.MainId, M.MainId);
  if (M.MainId != kNoFunc) {
    RunOptions Opts;
    Opts.Input = Input;
    ExecResult Before = runProgram(M, Opts);
    ExecResult After = runProgram(R.M, Opts);
    EXPECT_EQ(Before.Output, After.Output);
    EXPECT_EQ(Before.ExitCode, After.ExitCode);
  }
}

TEST(IrReader, RoundTripsMinimalModule) {
  expectRoundTrip(compileOk("int main() { return 42; }"));
}

TEST(IrReader, RoundTripsCallHeavyProgram) {
  expectRoundTrip(compileOk(test::kCallHeavyProgram), "round trip!");
}

TEST(IrReader, RoundTripsPointerCalls) {
  expectRoundTrip(compileOk(test::kPointerCallProgram), "ab");
}

TEST(IrReader, RoundTripsRecursiveProgram) {
  expectRoundTrip(compileOk(test::kRecursiveProgram), "xxxxx");
}

TEST(IrReader, RoundTripsGlobalsStringsAndFrames) {
  expectRoundTrip(compileOk(R"(
extern int putchar(int c);
int table[4];
int counter = -3;
int greet() { int *s; s = "hi\n"; while (*s != 0) { putchar(*s);
  s = s + 1; } return 0; }
int main() { int a[6]; a[2] = counter; greet(); return a[2] + 3; }
)"),
                  "");
}

TEST(IrReader, RoundTripsInlinedModule) {
  // Inlined modules carry path-qualified register names like
  // "square.x@site3" — the reader must preserve them.
  Module M = compileOk(test::kCallHeavyProgram);
  ProfileResult P = test::profileInputs(M, {std::string(30, 'x')});
  InlineOptions Options;
  Options.CodeGrowthFactor = 4.0;
  runInlineExpansion(M, P.Data, Options);
  expectRoundTrip(M, std::string(30, 'x'));
}

TEST(IrReader, RoundTripsEliminatedFunctions) {
  Module M = compileOk("int dead() { return 1; } int main() { return 0; }");
  eliminateDeadFunctions(M);
  ASSERT_TRUE(M.getFunction(M.findFunction("dead")).Eliminated);
  std::string Text = printModule(M);
  IrReadResult R = parseModuleText(Text);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.M.getFunction(R.M.findFunction("dead")).Eliminated);
  EXPECT_EQ(printModule(R.M), Text);
}

/// A module whose main holds one instruction of \p Op: operands in r1..r3,
/// a one-word frame, one global, and an int callee of one parameter.
Module makeOneOpcodeModule(Opcode Op) {
  Module M;
  M.addGlobal("g", 1);
  FuncId Callee = M.addFunction("callee", 1, /*ReturnsVoid=*/false,
                                /*IsExternal=*/false);
  Function &C = M.getFunction(Callee);
  C.addReg();
  C.getBlock(C.addBlock()).Instrs.push_back(Instr::makeRet(0));

  M.MainId = M.addFunction("main", 0, false, false);
  Function &F = M.getFunction(M.MainId);
  F.FrameSize = 1;
  for (int R = 0; R != 4; ++R)
    F.addReg();
  BlockId Entry = F.addBlock(), Then = F.addBlock(), Else = F.addBlock();
  F.getBlock(Then).Instrs.push_back(Instr::makeRet(1));
  F.getBlock(Else).Instrs.push_back(Instr::makeRet(2));

  Instr I;
  switch (getOpInfo(Op).Kind) {
  case OpKind::Unary:
    I = Instr::makeUnary(Op, 1, 2);
    break;
  case OpKind::Binary:
  case OpKind::Compare:
    I = Instr::makeBinary(Op, 1, 2, 3);
    break;
  case OpKind::Other:
    switch (Op) {
    case Opcode::LdImm:
      I = Instr::makeLdImm(1, -7);
      break;
    case Opcode::Load:
      I = Instr::makeLoad(1, 2);
      break;
    case Opcode::Store:
      I = Instr::makeStore(2, 3);
      break;
    case Opcode::FrameAddr:
      I = Instr::makeFrameAddr(1, 0);
      break;
    case Opcode::GlobalAddr:
      I = Instr::makeGlobalAddr(1, 0);
      break;
    case Opcode::FuncAddr:
      I = Instr::makeFuncAddr(1, Callee);
      break;
    case Opcode::Call:
      I = Instr::makeCall(1, Callee, {2}, M.allocateSiteId());
      break;
    case Opcode::CallPtr:
      I = Instr::makeCallPtr(1, 3, {2}, M.allocateSiteId());
      break;
    case Opcode::Jump:
      I = Instr::makeJump(Then);
      break;
    case Opcode::CondBr:
      I = Instr::makeCondBr(2, Then, Else);
      break;
    case Opcode::Ret:
      I = Instr::makeRet(3);
      break;
    default:
      ADD_FAILURE() << "no sample instruction for '" << getOpcodeName(Op)
                    << "'";
      break;
    }
    break;
  }
  std::vector<Instr> &Is = F.getBlock(Entry).Instrs;
  Is.push_back(I);
  if (!I.isTerminator())
    Is.push_back(Instr::makeJump(Then));
  return M;
}

TEST(IrReader, RoundTripsEveryOpcode) {
  for (size_t Idx = 0; Idx != kNumOpcodes; ++Idx) {
    Opcode Op = static_cast<Opcode>(Idx);
    SCOPED_TRACE(getOpcodeName(Op));
    Module M = makeOneOpcodeModule(Op);
    ASSERT_EQ(verifyModuleText(M), "");
    std::string Text = printModule(M);
    const Instr &I = M.getFunction(M.MainId).Blocks[0].Instrs[0];
    ASSERT_EQ(I.Op, Op);
    EXPECT_NE(printInstr(I).find(getOpcodeName(Op)), std::string::npos)
        << printInstr(I);
    IrReadResult R = parseModuleText(Text);
    ASSERT_TRUE(R.Ok) << R.Error << "\nin:\n" << Text;
    EXPECT_EQ(verifyModuleText(R.M), "");
    EXPECT_EQ(printModule(R.M), Text);
  }
}

TEST(IrReader, MissingHeaderRejected) {
  IrReadResult R = parseModuleText("int f(params=0, regs=0, frame=0) {\n");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("module"), std::string::npos);
}

TEST(IrReader, UnknownMnemonicRejected) {
  IrReadResult R = parseModuleText("module m\n"
                                   "int main(params=0, regs=1, frame=0) {\n"
                                   "bb0:\n"
                                   "  r0 = frobnicate r0\n"
                                   "}\n");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("frobnicate"), std::string::npos);
  EXPECT_NE(R.Error.find("line 4"), std::string::npos);
}

TEST(IrReader, InstructionOutsideBlockRejected) {
  IrReadResult R = parseModuleText("module m\n"
                                   "int main(params=0, regs=1, frame=0) {\n"
                                   "  r0 = ld_imm 1\n"
                                   "}\n");
  EXPECT_FALSE(R.Ok);
}

TEST(IrReader, UnterminatedBodyRejected) {
  IrReadResult R = parseModuleText("module m\n"
                                   "int main(params=0, regs=1, frame=0) {\n"
                                   "bb0:\n"
                                   "  r0 = ld_imm 1\n");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unterminated"), std::string::npos);
}

TEST(IrReader, SiteCounterReconstructed) {
  Module M = compileOk("int f() { return 1; }"
                       "int main() { return f() + f(); }");
  IrReadResult R = parseModuleText(printModule(M));
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.M.NextSiteId, 3u);
}

TEST(IrReader, NegativeImmediates) {
  IrReadResult R =
      parseModuleText("module m\n"
                      "int main(params=0, regs=1, frame=0) {\n"
                      "bb0:\n"
                      "  r0 = ld_imm -9223372036854775807\n"
                      "  ret r0\n"
                      "}\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.M.getFunction(0).Blocks[0].Instrs[0].Imm,
            -9223372036854775807ll);
}

} // namespace

//===- tests/InterpTests.cpp - interpreter semantics tests --------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "ir/IrVerifier.h"
#include "opt/ConstantFolding.h"
#include "profile/MinCover.h"
#include "vm/Vm.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <limits>
#include <ostream>
#include <vector>

using namespace impact;
using test::compileOk;
using test::runSource;

namespace {

/// Runs `int main() { return <Expr>; }` and returns the exit code.
int64_t evalExpr(const std::string &Expr) {
  Module M = compileOk("int main() { return " + Expr + "; }");
  RunOptions Opts;
  ExecResult R = runProgram(M, Opts);
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  return R.ExitCode;
}

//===----------------------------------------------------------------------===//
// Operator semantics grid: every unary, binary and compare opcode over an
// edge grid, through the walker, the VM (full and mincover) and constant
// folding, against host expectations written here — independently of
// ir/Opcode.h's evaluation. Binary operators are also compiled from their
// MiniC spelling over a small grid, which pins the frontend's lowering.
//===----------------------------------------------------------------------===//

/// What applying an operator must produce: a value, or this exact trap.
struct Outcome {
  int64_t Value = 0;
  const char *Trap = nullptr;
};

struct OpCase {
  const char *Token; // the C spelling, printed as the test parameter
  const char *Name;  // the test-name suffix
  Opcode Op;
  /// Null when the opcode table has an operator this grid does not know.
  Outcome (*Expect)(int64_t, int64_t); // unary cases ignore the second
};

// gtest would otherwise print the raw bytes of the pointers, which change
// with every load address and so make the registered ctest names differ
// from one discovery run to the next.
void PrintTo(const OpCase &C, std::ostream *OS) {
  *OS << '"' << C.Token << '"';
}

Outcome value(int64_t V) { return {V, nullptr}; }
Outcome trapWith(const char *Message) { return {0, Message}; }
int64_t wrap(uint64_t V) { return static_cast<int64_t>(V); }
uint64_t bits(int64_t V) { return static_cast<uint64_t>(V); }
/// The IL takes shift counts modulo 64.
unsigned shiftCount(int64_t B) { return static_cast<unsigned>(bits(B) % 64); }

Outcome hostMov(int64_t A, int64_t) { return value(A); }
Outcome hostNeg(int64_t A, int64_t) { return value(wrap(~bits(A) + 1)); }
Outcome hostNot(int64_t A, int64_t) {
  return value(wrap(std::numeric_limits<uint64_t>::max() - bits(A)));
}
Outcome hostAdd(int64_t A, int64_t B) { return value(wrap(bits(A) + bits(B))); }
Outcome hostSub(int64_t A, int64_t B) { return value(wrap(bits(A) - bits(B))); }
Outcome hostMul(int64_t A, int64_t B) { return value(wrap(bits(A) * bits(B))); }
Outcome hostDiv(int64_t A, int64_t B) {
  if (B == 0)
    return trapWith("division by zero");
  if (A == std::numeric_limits<int64_t>::min() && B == -1)
    return trapWith("division overflow");
  return value(A / B);
}
Outcome hostRem(int64_t A, int64_t B) {
  if (B == 0)
    return trapWith("remainder by zero");
  if (A == std::numeric_limits<int64_t>::min() && B == -1)
    return trapWith("remainder overflow");
  return value(A % B);
}
Outcome hostShl(int64_t A, int64_t B) {
  return value(wrap(bits(A) << shiftCount(B)));
}
Outcome hostShr(int64_t A, int64_t B) {
  // Arithmetic: the sign bit fills the vacated positions.
  uint64_t Shifted = bits(A) >> shiftCount(B);
  if (A < 0 && shiftCount(B) != 0)
    Shifted |= ~uint64_t(0) << (64 - shiftCount(B));
  return value(wrap(Shifted));
}
Outcome hostAnd(int64_t A, int64_t B) { return value(A & B); }
Outcome hostOr(int64_t A, int64_t B) { return value(A | B); }
Outcome hostXor(int64_t A, int64_t B) { return value(A ^ B); }
Outcome hostLt(int64_t A, int64_t B) { return value(A < B); }
Outcome hostLe(int64_t A, int64_t B) { return value(A <= B); }
Outcome hostGt(int64_t A, int64_t B) { return value(A > B); }
Outcome hostGe(int64_t A, int64_t B) { return value(A >= B); }
Outcome hostEq(int64_t A, int64_t B) { return value(A == B); }
Outcome hostNe(int64_t A, int64_t B) { return value(A != B); }

const OpCase kOpCases[] = {
    {"=", "Mov", Opcode::Mov, hostMov},
    {"unary -", "Neg", Opcode::Neg, hostNeg},
    {"~", "BitNot", Opcode::Not, hostNot},
    {"+", "Add", Opcode::Add, hostAdd},
    {"-", "Sub", Opcode::Sub, hostSub},
    {"*", "Mul", Opcode::Mul, hostMul},
    {"/", "Div", Opcode::Div, hostDiv},
    {"%", "Rem", Opcode::Rem, hostRem},
    {"<<", "Shl", Opcode::Shl, hostShl},
    {">>", "Shr", Opcode::Shr, hostShr},
    {"&", "And", Opcode::And, hostAnd},
    {"|", "Or", Opcode::Or, hostOr},
    {"^", "Xor", Opcode::Xor, hostXor},
    {"<", "Lt", Opcode::CmpLt, hostLt},
    {"<=", "LtEq", Opcode::CmpLe, hostLe},
    {">", "Gt", Opcode::CmpGt, hostGt},
    {">=", "GtEq", Opcode::CmpGe, hostGe},
    {"==", "EqEq", Opcode::CmpEq, hostEq},
    {"!=", "NotEq", Opcode::CmpNe, hostNe},
};

/// One case per operator of the opcode table, in table order: an operator
/// added to the table without a case here gets a failing case.
std::vector<OpCase> everyOperator() {
  std::vector<OpCase> Cases;
  for (size_t Idx = 0; Idx != kNumOpcodes; ++Idx) {
    Opcode Op = static_cast<Opcode>(Idx);
    if (!isUnaryOp(Op) && !isBinaryOp(Op))
      continue;
    OpCase Missing{getOpcodeName(Op), getOpcodeName(Op), Op, nullptr};
    const OpCase *Found = &Missing;
    for (const OpCase &C : kOpCases)
      if (C.Op == Op)
        Found = &C;
    Cases.push_back(*Found);
  }
  return Cases;
}

/// main() { r0 = A; r1 = B; r2 = Op r0[, r1]; return r2; }
Module makeOperatorModule(Opcode Op, int64_t A, int64_t B) {
  Module M;
  M.MainId = M.addFunction("main", 0, /*ReturnsVoid=*/false,
                           /*IsExternal=*/false);
  Function &F = M.getFunction(M.MainId);
  std::vector<Instr> &Is = F.getBlock(F.addBlock()).Instrs;
  Reg RA = F.addReg(), RB = F.addReg(), RD = F.addReg();
  Is.push_back(Instr::makeLdImm(RA, A));
  Is.push_back(Instr::makeLdImm(RB, B));
  Is.push_back(isBinaryOp(Op) ? Instr::makeBinary(Op, RD, RA, RB)
                              : Instr::makeUnary(Op, RD, RA));
  Is.push_back(Instr::makeRet(RD));
  return M;
}

void expectOutcome(const ExecResult &R, const Outcome &Want,
                   const std::string &Where) {
  if (Want.Trap) {
    EXPECT_EQ(R.St, ExecResult::Status::Trapped) << Where;
    EXPECT_EQ(R.TrapMessage, Want.Trap) << Where;
  } else {
    EXPECT_TRUE(R.ok()) << Where << ": " << R.TrapMessage;
    EXPECT_EQ(R.ExitCode, Want.Value) << Where;
  }
}

class BinaryOpSemantics : public ::testing::TestWithParam<OpCase> {};

TEST_P(BinaryOpSemantics, MatchesHostOnGrid) {
  const OpCase &C = GetParam();
  ASSERT_NE(C.Expect, nullptr)
      << "opcode '" << getOpcodeName(C.Op)
      << "' has no expectation in this grid; add one to kOpCases";
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  const int64_t Grid[] = {Min, Min + 1, -2, -1, 0, 1, 2, 63, 64, 127, Max};
  bool AnyTrap = false;
  for (int64_t A : Grid) {
    for (int64_t B : Grid) {
      if (!isBinaryOp(C.Op) && B != Grid[0])
        break; // unary: one pass over the grid
      Outcome Want = C.Expect(A, B);
      AnyTrap |= Want.Trap != nullptr;
      std::string Where = std::string(getOpcodeName(C.Op)) + " " +
                          std::to_string(A) + ", " + std::to_string(B);
      Module M = makeOperatorModule(C.Op, A, B);
      ASSERT_EQ(verifyModuleText(M), "");

      expectOutcome(runProgram(M), Want, Where + " (walker)");
      expectOutcome(runProgramVm(M), Want, Where + " (vm)");
      MinCoverPlan Plan = buildMinCoverPlan(M);
      RunOptions MinCover;
      MinCover.MinCover = &Plan;
      expectOutcome(runProgramVm(M, MinCover), Want,
                    Where + " (vm mincover)");

      // Folding computes the value at compile time, or leaves the trapping
      // operator in place for the runtime to raise.
      Module Folded = M;
      runConstantFolding(Folded);
      const Instr &I = Folded.getFunction(Folded.MainId).Blocks[0].Instrs[2];
      if (Want.Trap) {
        EXPECT_EQ(I.Op, C.Op) << Where << " (fold)";
        expectOutcome(runProgram(Folded), Want, Where + " (folded)");
      } else {
        EXPECT_EQ(I.Op, Opcode::LdImm) << Where << " (fold)";
        EXPECT_EQ(I.Imm, Want.Value) << Where << " (fold)";
      }
    }
  }
  EXPECT_EQ(AnyTrap, mayTrap(C.Op))
      << "the opcode table's may-trap flag disagrees with the grid";

  // The C spelling of a binary operator compiles to the same semantics.
  if (!isBinaryOp(C.Op))
    return;
  const int64_t Small[] = {-9, -2, -1, 0, 1, 2, 3, 8, 127};
  for (int64_t A : Small) {
    for (int64_t B : Small) {
      Outcome Want = C.Expect(A, B);
      if (Want.Trap)
        continue;
      std::string Expr = "(" + std::to_string(A) + " " + C.Token + " (" +
                         std::to_string(B) + "))";
      EXPECT_EQ(evalExpr(Expr), Want.Value) << Expr;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, BinaryOpSemantics, ::testing::ValuesIn(everyOperator()),
    [](const ::testing::TestParamInfo<OpCase> &Info) {
      return std::string(Info.param.Name);
    });

//===----------------------------------------------------------------------===//
// Individual semantics
//===----------------------------------------------------------------------===//

TEST(Interp, DivisionTruncatesTowardZero) {
  EXPECT_EQ(evalExpr("7 / 2"), 3);
  EXPECT_EQ(evalExpr("-7 / 2"), -3);
  EXPECT_EQ(evalExpr("7 / -2"), -3);
  EXPECT_EQ(evalExpr("7 % 2"), 1);
  EXPECT_EQ(evalExpr("-7 % 2"), -1);
}

TEST(Interp, ShiftsMaskCount) {
  EXPECT_EQ(evalExpr("1 << 3"), 8);
  EXPECT_EQ(evalExpr("1 << 64"), 1) << "count taken mod 64";
  EXPECT_EQ(evalExpr("-8 >> 1"), -4) << "arithmetic shift";
}

TEST(Interp, UnaryOperators) {
  EXPECT_EQ(evalExpr("-(5)"), -5);
  EXPECT_EQ(evalExpr("~0"), -1);
  EXPECT_EQ(evalExpr("!0"), 1);
  EXPECT_EQ(evalExpr("!7"), 0);
  EXPECT_EQ(evalExpr("!!7"), 1);
}

TEST(Interp, ShortCircuitAndSkipsRhs) {
  // If && evaluated its RHS, the division by zero would trap.
  Module M = compileOk(
      "int main() { int z; z = 0; return z != 0 && 1 / z; }");
  ExecResult R = runProgram(M);
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(Interp, ShortCircuitOrSkipsRhs) {
  Module M = compileOk(
      "int main() { int z; z = 0; return z == 0 || 1 / z; }");
  ExecResult R = runProgram(M);
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(Interp, LogicalOpsNormalizeToBool) {
  EXPECT_EQ(evalExpr("5 && 9"), 1);
  EXPECT_EQ(evalExpr("5 || 0"), 1);
  EXPECT_EQ(evalExpr("0 && 9"), 0);
}

TEST(Interp, ConditionalExpressionLaziness) {
  Module M = compileOk(
      "int main() { int z; z = 0; return z ? 1 / z : 42; }");
  ExecResult R = runProgram(M);
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(Interp, DivisionByZeroTraps) {
  Module M = compileOk("int main() { int z; z = 0; return 1 / z; }");
  ExecResult R = runProgram(M);
  EXPECT_EQ(R.St, ExecResult::Status::Trapped);
  EXPECT_NE(R.TrapMessage.find("division by zero"), std::string::npos);
}

TEST(Interp, RemainderByZeroTraps) {
  Module M = compileOk("int main() { int z; z = 0; return 1 % z; }");
  EXPECT_EQ(runProgram(M).St, ExecResult::Status::Trapped);
}

TEST(Interp, IncrementDecrementSemantics) {
  EXPECT_EQ(runSource("extern int print_int(int v);"
                      "int main() { int x; x = 5;"
                      "print_int(x++); print_int(x);"
                      "print_int(++x); print_int(x--); print_int(--x);"
                      "return 0; }"),
            "56775");
}

TEST(Interp, GlobalsPersistAcrossCalls) {
  EXPECT_EQ(runSource("extern int print_int(int v);"
                      "int g; int bump() { g = g + 1; return g; }"
                      "int main() { bump(); bump(); print_int(bump());"
                      "return 0; }"),
            "3");
}

TEST(Interp, GlobalArrayIndexing) {
  EXPECT_EQ(runSource("extern int print_int(int v);"
                      "int a[5];"
                      "int main() { int i;"
                      "for (i = 0; i < 5; i++) a[i] = i * i;"
                      "print_int(a[0] + a[1] + a[2] + a[3] + a[4]);"
                      "return 0; }"),
            "30");
}

TEST(Interp, LocalArrayZeroInitialized) {
  EXPECT_EQ(runSource("extern int print_int(int v);"
                      "int main() { int a[4]; print_int(a[3]); return 0; }"),
            "0");
}

TEST(Interp, PointerArithmeticWalksWords) {
  EXPECT_EQ(runSource("extern int print_int(int v);"
                      "int a[4];"
                      "int main() { int *p; a[2] = 77; p = a;"
                      "print_int(*(p + 2)); return 0; }"),
            "77");
}

TEST(Interp, StringLiteralContents) {
  EXPECT_EQ(runSource("extern int putchar(int c);"
                      "int main() { int *s; s = \"ok\";"
                      "while (*s != 0) { putchar(*s); s = s + 1; }"
                      "return 0; }"),
            "ok");
}

TEST(Interp, RecursionComputesFib) {
  EXPECT_EQ(runSource("extern int print_int(int v);"
                      "int fib(int n) { if (n < 2) return n;"
                      "return fib(n - 1) + fib(n - 2); }"
                      "int main() { print_int(fib(15)); return 0; }"),
            "610");
}

TEST(Interp, MutualRecursion) {
  // No prototypes needed: top-level names resolve in a first pass.
  EXPECT_EQ(runSource("extern int print_int(int v);"
                      "int even(int n) { return n == 0 ? 1 : odd(n - 1); }"
                      "int main() { print_int(even(10)); return 0; }"
                      "int odd(int n) { return n == 0 ? 0 : even(n - 1); }"),
            "1");
}

TEST(Interp, IndirectCallsDispatch) {
  Module M = compileOk(test::kPointerCallProgram);
  ExecResult R = test::runOk(M, "ab");
  // total = apply('a'%2=1 -> add_two)(0)=2; apply('b'%2=0 -> add_one)(2)=3.
  EXPECT_EQ(R.Output, "3\n");
}

TEST(Interp, IndirectCallThroughGarbageTraps) {
  Module M = compileOk("int main() { int (*f)(int); f = 1234; return f(1); }");
  ExecResult R = runProgram(M);
  EXPECT_EQ(R.St, ExecResult::Status::Trapped);
}

TEST(Interp, StepLimitStopsRunawayLoop) {
  Module M = compileOk("int main() { while (1) { } return 0; }");
  RunOptions Opts;
  Opts.StepLimit = 1000;
  ExecResult R = runProgram(M, Opts);
  EXPECT_EQ(R.St, ExecResult::Status::StepLimitExceeded);
}

TEST(Interp, StepLimitCountsExactly) {
  // The instruction that hits the limit never executes: a run stopped at
  // StepLimit = N has executed exactly N instructions, in either mode.
  Module M = compileOk("int main() { while (1) { } return 0; }");
  MinCoverPlan Plan = buildMinCoverPlan(M);
  for (uint64_t Limit : {1000ull, 0ull}) {
    SCOPED_TRACE("limit " + std::to_string(Limit));
    RunOptions Opts;
    Opts.StepLimit = Limit;
    ExecResult Full = runProgram(M, Opts);
    EXPECT_EQ(Full.St, ExecResult::Status::StepLimitExceeded);
    EXPECT_EQ(Full.Stats.InstrCount, Limit);
    uint64_t Histogram = 0;
    for (uint64_t C : Full.Stats.OpcodeCounts)
      Histogram += C;
    EXPECT_EQ(Histogram, Limit);

    Opts.MinCover = &Plan;
    ExecResult Mc = runProgram(M, Opts);
    EXPECT_EQ(Mc.St, ExecResult::Status::StepLimitExceeded);
    EXPECT_EQ(Mc.Stats.InstrCount, Limit);
  }
}

TEST(Interp, StackOverflowTraps) {
  Module M = compileOk("int down(int n) { return down(n + 1); }"
                       "int main() { return down(0); }");
  RunOptions Opts;
  Opts.StackWords = 2000;
  Opts.StepLimit = 10'000'000;
  ExecResult R = runProgram(M, Opts);
  EXPECT_EQ(R.St, ExecResult::Status::Trapped);
  EXPECT_NE(R.TrapMessage.find("stack overflow"), std::string::npos);
}

TEST(Interp, NullLoadTraps) {
  Module M = compileOk("int main() { int *p; p = 0; return *p; }");
  EXPECT_EQ(runProgram(M).St, ExecResult::Status::Trapped);
}

TEST(Interp, WildStoreTraps) {
  Module M = compileOk("int main() { int *p; p = 123456; *p = 1; return 0; }");
  EXPECT_EQ(runProgram(M).St, ExecResult::Status::Trapped);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(InterpStats, CountsInstructionsAndCalls) {
  Module M = compileOk(test::kCallHeavyProgram);
  ExecResult R = test::runOk(M, std::string(10, 'x'));
  EXPECT_GT(R.Stats.InstrCount, 100u);
  EXPECT_GT(R.Stats.DynamicCalls, 20u);
  EXPECT_GT(R.Stats.ControlTransfers, 10u);
  EXPECT_GT(R.Stats.Returns, 20u);
}

TEST(InterpStats, SiteCountsMatchCallTotals) {
  Module M = compileOk(test::kCallHeavyProgram);
  ExecResult R = test::runOk(M, std::string(7, 'x'));
  uint64_t SiteTotal = 0;
  for (uint64_t C : R.Stats.SiteCounts)
    SiteTotal += C;
  EXPECT_EQ(SiteTotal, R.Stats.DynamicCalls);
}

TEST(InterpStats, FuncEntryCounts) {
  Module M = compileOk(test::kCallHeavyProgram);
  ExecResult R = test::runOk(M, std::string(5, 'x'));
  // accumulate called once; cube 5 times; square 5 (from cube) + 5 = 10.
  EXPECT_EQ(R.Stats.FuncEntryCounts[M.findFunction("accumulate")], 1u);
  EXPECT_EQ(R.Stats.FuncEntryCounts[M.findFunction("cube")], 5u);
  EXPECT_EQ(R.Stats.FuncEntryCounts[M.findFunction("square")], 10u);
}

TEST(InterpStats, ExternalAndPointerCallsTracked) {
  Module M = compileOk(test::kPointerCallProgram);
  ExecResult R = test::runOk(M, "abcd");
  EXPECT_GE(R.Stats.PointerCalls, 4u);
  EXPECT_GE(R.Stats.ExternalCalls, 5u); // 5 getchar + print_int + putchar
}

TEST(InterpStats, ControlTransfersExcludeCallsAndReturns) {
  Module M = compileOk("int main() { return 0; }");
  ExecResult R = test::runOk(M);
  EXPECT_EQ(R.Stats.ControlTransfers, 0u);
}

TEST(InterpStats, PeakStackGrowsWithRecursionDepth) {
  const char *Src = "int down(int n) { if (n == 0) return 0;"
                    "return down(n - 1); }"
                    "extern int getchar();"
                    "int main() { int d; d = 0;"
                    "while (getchar() != -1) d = d + 1;"
                    "return down(d); }";
  Module M = compileOk(Src);
  ExecResult Shallow = test::runOk(M, "xx");
  ExecResult Deep = test::runOk(M, std::string(40, 'x'));
  EXPECT_GT(Deep.Stats.PeakStackWords, Shallow.Stats.PeakStackWords);
}

TEST(InterpStats, OpcodeCountsSumToInstrCount) {
  Module M = compileOk(test::kCallHeavyProgram);
  ExecResult R = test::runOk(M, "xyz");
  uint64_t Sum = 0;
  for (uint64_t C : R.Stats.OpcodeCounts)
    Sum += C;
  EXPECT_EQ(Sum, R.Stats.InstrCount);
}

TEST(Interp, ExitCodePropagatesFromMain) {
  Module M = compileOk("int main() { return 42; }");
  EXPECT_EQ(runProgram(M).ExitCode, 42);
}

} // namespace

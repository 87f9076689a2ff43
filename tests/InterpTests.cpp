//===- tests/InterpTests.cpp - interpreter semantics tests --------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <ostream>

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
// Parameterized arithmetic sweep: every binary operator over a value grid,
// checked against the host's semantics.
//===----------------------------------------------------------------------===//

struct BinOpCase {
  const char *Op;
  int64_t (*Eval)(int64_t, int64_t);
};

// gtest would otherwise print the raw bytes of the two pointers, which
// change with every load address and so make the registered ctest names
// differ from one discovery run to the next.
void PrintTo(const BinOpCase &C, std::ostream *OS) {
  *OS << '"' << C.Op << '"';
}

int64_t hostAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
int64_t hostSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
int64_t hostMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
int64_t hostAnd(int64_t A, int64_t B) { return A & B; }
int64_t hostOr(int64_t A, int64_t B) { return A | B; }
int64_t hostXor(int64_t A, int64_t B) { return A ^ B; }
int64_t hostLt(int64_t A, int64_t B) { return A < B; }
int64_t hostLe(int64_t A, int64_t B) { return A <= B; }
int64_t hostGt(int64_t A, int64_t B) { return A > B; }
int64_t hostGe(int64_t A, int64_t B) { return A >= B; }
int64_t hostEq(int64_t A, int64_t B) { return A == B; }
int64_t hostNe(int64_t A, int64_t B) { return A != B; }

class BinaryOpSemantics : public ::testing::TestWithParam<BinOpCase> {};

TEST_P(BinaryOpSemantics, MatchesHostOnGrid) {
  const BinOpCase &C = GetParam();
  const int64_t Grid[] = {-9, -2, -1, 0, 1, 2, 3, 8, 127};
  // One program evaluating the op over a pair read from input digits would
  // be slow; instead build one program per pair lazily but in one module:
  // simpler and still fast — evaluate via globals.
  for (int64_t A : Grid) {
    for (int64_t B : Grid) {
      std::string Expr = "(" + std::to_string(A) + " " + C.Op + " (" +
                         std::to_string(B) + "))";
      EXPECT_EQ(evalExpr(Expr), C.Eval(A, B))
          << A << " " << C.Op << " " << B;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, BinaryOpSemantics,
    ::testing::Values(BinOpCase{"+", hostAdd}, BinOpCase{"-", hostSub},
                      BinOpCase{"*", hostMul}, BinOpCase{"&", hostAnd},
                      BinOpCase{"|", hostOr}, BinOpCase{"^", hostXor},
                      BinOpCase{"<", hostLt}, BinOpCase{"<=", hostLe},
                      BinOpCase{">", hostGt}, BinOpCase{">=", hostGe},
                      BinOpCase{"==", hostEq}, BinOpCase{"!=", hostNe}),
    [](const ::testing::TestParamInfo<BinOpCase> &Info) {
      std::string Name;
      for (const char *P = Info.param.Op; *P; ++P)
        switch (*P) {
        case '+': Name += "Add"; break;
        case '-': Name += "Sub"; break;
        case '*': Name += "Mul"; break;
        case '&': Name += "And"; break;
        case '|': Name += "Or"; break;
        case '^': Name += "Xor"; break;
        case '<': Name += "Lt"; break;
        case '>': Name += "Gt"; break;
        case '=': Name += "Eq"; break;
        case '!': Name += "Not"; break;
        }
      return Name;
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

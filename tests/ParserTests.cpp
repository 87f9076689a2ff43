//===- tests/ParserTests.cpp - MiniC parser unit tests ----------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "driver/Compilation.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace impact;

namespace {

std::unique_ptr<TranslationUnit> parseOk(std::string_view Text) {
  DiagnosticEngine Diags;
  Parser P(Text, Diags);
  auto TU = P.parseTranslationUnit();
  EXPECT_FALSE(Diags.hasErrors()) << "unexpected parse errors";
  return TU;
}

unsigned parseErrorCount(std::string_view Text) {
  DiagnosticEngine Diags;
  Parser P(Text, Diags);
  P.parseTranslationUnit();
  return Diags.getNumErrors();
}

/// Parses a whole function and dumps its body.
std::string dumpBody(std::string_view Body) {
  std::string Source = "int f() {\n" + std::string(Body) + "\n}\n";
  auto TU = parseOk(Source);
  auto *F = dyn_cast<FunctionDecl>(TU->Decls.at(0).get());
  EXPECT_NE(F, nullptr);
  return dumpStmt(*F->getBody());
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

TEST(Parser, EmptyTranslationUnit) {
  auto TU = parseOk("");
  EXPECT_TRUE(TU->Decls.empty());
}

TEST(Parser, GlobalScalar) {
  auto TU = parseOk("int g;");
  ASSERT_EQ(TU->Decls.size(), 1u);
  auto *V = dyn_cast<VarDecl>(TU->Decls[0].get());
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->getName(), "g");
  EXPECT_TRUE(V->isGlobal());
  EXPECT_FALSE(V->isArray());
}

TEST(Parser, GlobalArray) {
  auto TU = parseOk("int buf[128];");
  auto *V = cast<VarDecl>(TU->Decls.at(0).get());
  EXPECT_TRUE(V->isArray());
  EXPECT_EQ(V->getArraySize(), 128);
}

TEST(Parser, GlobalPointerArray) {
  auto TU = parseOk("int *names[4];");
  auto *V = cast<VarDecl>(TU->Decls.at(0).get());
  EXPECT_TRUE(V->isArray());
  EXPECT_TRUE(V->getType().isPtr());
}

TEST(Parser, GlobalWithInitializer) {
  auto TU = parseOk("int g = 42;");
  auto *V = cast<VarDecl>(TU->Decls.at(0).get());
  ASSERT_NE(V->getInit(), nullptr);
  EXPECT_EQ(cast<IntLiteralExpr>(V->getInit())->getValue(), 42);
}

TEST(Parser, BadArraySizeReported) {
  EXPECT_GT(parseErrorCount("int a[0];"), 0u);
  EXPECT_GT(parseErrorCount("int a[x];"), 0u);
}

TEST(Parser, FunctionDefinition) {
  auto TU = parseOk("int add(int a, int b) { return a + b; }");
  auto *F = cast<FunctionDecl>(TU->Decls.at(0).get());
  EXPECT_EQ(F->getName(), "add");
  EXPECT_EQ(F->getNumParams(), 2u);
  EXPECT_FALSE(F->isExtern());
  ASSERT_NE(F->getBody(), nullptr);
}

TEST(Parser, VoidFunctionNoParams) {
  auto TU = parseOk("void f() { }  void g(void) { }");
  EXPECT_EQ(cast<FunctionDecl>(TU->Decls.at(0).get())->getNumParams(), 0u);
  EXPECT_EQ(cast<FunctionDecl>(TU->Decls.at(1).get())->getNumParams(), 0u);
}

TEST(Parser, ExternFunction) {
  auto TU = parseOk("extern int getchar();");
  auto *F = cast<FunctionDecl>(TU->Decls.at(0).get());
  EXPECT_TRUE(F->isExtern());
  EXPECT_EQ(F->getBody(), nullptr);
}

TEST(Parser, BodylessDeclarationIsExtern) {
  auto TU = parseOk("int probe(int x);");
  EXPECT_TRUE(cast<FunctionDecl>(TU->Decls.at(0).get())->isExtern());
}

TEST(Parser, ExternWithBodyIsError) {
  EXPECT_GT(parseErrorCount("extern int f() { return 0; }"), 0u);
}

TEST(Parser, PointerParams) {
  auto TU = parseOk("int f(int *p, int **q) { return 0; }");
  auto *F = cast<FunctionDecl>(TU->Decls.at(0).get());
  EXPECT_EQ(F->getParams()[0]->getType(), Type::makePtr(1));
  EXPECT_EQ(F->getParams()[1]->getType(), Type::makePtr(2));
}

TEST(Parser, FunctionPointerGlobal) {
  auto TU = parseOk("int (*handler)(int, int);");
  auto *V = cast<VarDecl>(TU->Decls.at(0).get());
  EXPECT_TRUE(V->getType().isFuncPtr());
  EXPECT_EQ(V->getType().NumParams, 2u);
}

TEST(Parser, VoidFunctionPointer) {
  auto TU = parseOk("void (*cb)(int);");
  auto *V = cast<VarDecl>(TU->Decls.at(0).get());
  EXPECT_TRUE(V->getType().isFuncPtr());
  EXPECT_TRUE(V->getType().ReturnsVoid);
}

TEST(Parser, FunctionPointerParam) {
  auto TU = parseOk("int apply(int (*f)(int), int x) { return 0; }");
  auto *F = cast<FunctionDecl>(TU->Decls.at(0).get());
  EXPECT_TRUE(F->getParams()[0]->getType().isFuncPtr());
  EXPECT_EQ(F->getParams()[0]->getName(), "f");
}

TEST(Parser, ExternOnVariableIsError) {
  EXPECT_GT(parseErrorCount("extern int g;"), 0u);
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

TEST(Parser, IfElseChain) {
  std::string Dump = dumpBody("if (1) { } else if (2) { } else { }");
  EXPECT_NE(Dump.find("IfStmt"), std::string::npos);
}

TEST(Parser, WhileLoop) {
  std::string Dump = dumpBody("while (1) { break; }");
  EXPECT_NE(Dump.find("WhileStmt"), std::string::npos);
  EXPECT_NE(Dump.find("BreakStmt"), std::string::npos);
}

TEST(Parser, ForWithAllClauses) {
  std::string Dump = dumpBody("for (int i = 0; i < 10; i = i + 1) continue;");
  EXPECT_NE(Dump.find("ForStmt"), std::string::npos);
  EXPECT_NE(Dump.find("ContinueStmt"), std::string::npos);
}

TEST(Parser, ForWithEmptyClauses) {
  std::string Dump = dumpBody("for (;;) break;");
  EXPECT_NE(Dump.find("ForStmt"), std::string::npos);
}

TEST(Parser, ForWithExpressionInit) {
  std::string Dump = dumpBody("int i; for (i = 0; i < 3; i++) { }");
  EXPECT_NE(Dump.find("ForStmt"), std::string::npos);
}

TEST(Parser, ReturnForms) {
  parseOk("void f() { return; }  int g() { return 1 + 2; }");
}

TEST(Parser, LocalDeclarations) {
  std::string Dump = dumpBody("int x; int y = 5; int a[8]; int *p;");
  EXPECT_NE(Dump.find("VarDecl x"), std::string::npos);
  EXPECT_NE(Dump.find("VarDecl y"), std::string::npos);
  EXPECT_NE(Dump.find("[8]"), std::string::npos);
}

TEST(Parser, LocalFunctionPointer) {
  std::string Dump = dumpBody("int (*h)(int); h = 0;");
  EXPECT_NE(Dump.find("VarDecl h"), std::string::npos);
}

TEST(Parser, EmptyStatement) { dumpBody(";;;"); }

TEST(Parser, NestedBlocks) {
  std::string Dump = dumpBody("{ { int x; } }");
  EXPECT_NE(Dump.find("CompoundStmt"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

TEST(Parser, PrecedenceMulOverAdd) {
  // a + b * c => (+ a (* b c))
  std::string Dump = dumpBody("return a + b * c;");
  size_t Plus = Dump.find("Binary +");
  size_t Mul = Dump.find("Binary *");
  ASSERT_NE(Plus, std::string::npos);
  ASSERT_NE(Mul, std::string::npos);
  EXPECT_LT(Plus, Mul) << "the + must be the root";
}

TEST(Parser, PrecedenceParensOverride) {
  std::string Dump = dumpBody("return (a + b) * c;");
  size_t Plus = Dump.find("Binary +");
  size_t Mul = Dump.find("Binary *");
  EXPECT_LT(Mul, Plus) << "the * must be the root";
}

TEST(Parser, ComparisonBindsLooserThanShift) {
  std::string Dump = dumpBody("return a << 1 < b;");
  size_t Lt = Dump.find("Binary <\n");
  size_t Shl = Dump.find("Binary <<");
  ASSERT_NE(Lt, std::string::npos);
  ASSERT_NE(Shl, std::string::npos);
  EXPECT_LT(Lt, Shl);
}

TEST(Parser, LogicalOperatorsNest) {
  // a || b && c => (|| a (&& b c))
  std::string Dump = dumpBody("return a || b && c;");
  size_t Or = Dump.find("Binary ||");
  size_t And = Dump.find("Binary &&");
  EXPECT_LT(Or, And);
}

TEST(Parser, AssignmentIsRightAssociative) {
  std::string Dump = dumpBody("a = b = 3;");
  // Root Assign, whose RHS is another Assign.
  size_t First = Dump.find("Assign =");
  size_t Second = Dump.find("Assign =", First + 1);
  EXPECT_NE(Second, std::string::npos);
}

TEST(Parser, CompoundAssignments) {
  std::string Dump = dumpBody("a += 1; a -= 2; a *= 3; a /= 4; a %= 5;");
  EXPECT_NE(Dump.find("Assign +="), std::string::npos);
  EXPECT_NE(Dump.find("Assign %="), std::string::npos);
}

TEST(Parser, ConditionalExpression) {
  std::string Dump = dumpBody("return a ? b : c ? d : e;");
  // Right-associative: second conditional nested in the else arm.
  size_t First = Dump.find("Conditional");
  size_t Second = Dump.find("Conditional", First + 1);
  EXPECT_NE(Second, std::string::npos);
}

TEST(Parser, UnaryOperators) {
  std::string Dump = dumpBody("return -a + ~b + !c + *p + &x;");
  EXPECT_NE(Dump.find("Unary -"), std::string::npos);
  EXPECT_NE(Dump.find("Unary ~"), std::string::npos);
  EXPECT_NE(Dump.find("Unary !"), std::string::npos);
  EXPECT_NE(Dump.find("Unary *"), std::string::npos);
  EXPECT_NE(Dump.find("Unary &"), std::string::npos);
}

TEST(Parser, IncrementDecrementForms) {
  std::string Dump = dumpBody("++a; --a; a++; a--;");
  EXPECT_NE(Dump.find("Unary pre++"), std::string::npos);
  EXPECT_NE(Dump.find("Unary pre--"), std::string::npos);
  EXPECT_NE(Dump.find("Unary post++"), std::string::npos);
  EXPECT_NE(Dump.find("Unary post--"), std::string::npos);
}

TEST(Parser, CallsAndIndexChains) {
  std::string Dump = dumpBody("return f(1, 2)[3];");
  size_t Index = Dump.find("Index");
  size_t Call = Dump.find("Call");
  ASSERT_NE(Index, std::string::npos);
  ASSERT_NE(Call, std::string::npos);
  EXPECT_LT(Index, Call) << "index applies to the call result";
}

TEST(Parser, NestedCalls) {
  std::string Dump = dumpBody("return f(g(x), h());");
  EXPECT_NE(Dump.find("Call"), std::string::npos);
}

TEST(Parser, StringAndCharLiterals) {
  std::string Dump = dumpBody("return \"abc\"[0] + 'x';");
  EXPECT_NE(Dump.find("StringLiteral \"abc\""), std::string::npos);
  EXPECT_NE(Dump.find("IntLiteral 120"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Error handling / recovery
//===----------------------------------------------------------------------===//

TEST(Parser, MissingSemicolonReported) {
  EXPECT_GT(parseErrorCount("int f() { return 1 }"), 0u);
}

TEST(Parser, MissingParenReported) {
  EXPECT_GT(parseErrorCount("int f() { if (1 { } return 0; }"), 0u);
}

TEST(Parser, GarbageAtTopLevel) {
  EXPECT_GT(parseErrorCount("+++"), 0u);
}

TEST(Parser, RecoversToNextDeclaration) {
  DiagnosticEngine Diags;
  Parser P("int f() { return &; }\nint g() { return 2; }", Diags);
  auto TU = P.parseTranslationUnit();
  EXPECT_TRUE(Diags.hasErrors());
  // g must still be parsed despite the error in f.
  EXPECT_NE(TU->findFunction("g"), nullptr);
}

TEST(Parser, FindFunctionByName) {
  auto TU = parseOk("int a() { return 0; } int b() { return 1; }");
  EXPECT_NE(TU->findFunction("a"), nullptr);
  EXPECT_NE(TU->findFunction("b"), nullptr);
  EXPECT_EQ(TU->findFunction("c"), nullptr);
}

//===----------------------------------------------------------------------===//
// Nesting budget
//===----------------------------------------------------------------------===//

/// Compiles \p Source and expects exactly one diagnostic: the budget's.
void expectRejectedAsTooDeep(const std::string &Source) {
  CompilationResult R = compileMiniC(Source, "deep");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Errors.find("nesting budget exceeded"), std::string::npos)
      << R.Errors;
  EXPECT_EQ(std::count(R.Errors.begin(), R.Errors.end(), '\n'), 1)
      << "one diagnostic, no cascade: " << R.Errors;
}

std::string repeat(std::string_view Piece, size_t N) {
  std::string Out;
  Out.reserve(Piece.size() * N);
  for (size_t I = 0; I != N; ++I)
    Out += Piece;
  return Out;
}

TEST(ParserNesting, DeepParenthesesAreRejected) {
  expectRejectedAsTooDeep("int main() { return " + repeat("(", 10000) + "1" +
                          repeat(")", 10000) + "; }");
}

TEST(ParserNesting, LongOperatorChainIsRejected) {
  // Parsed by a loop, not recursion: the tree height is what is bounded.
  expectRejectedAsTooDeep("int main() { return 1" + repeat(" + 1", 49999) +
                          "; }");
}

TEST(ParserNesting, DeepBlocksAreRejected) {
  expectRejectedAsTooDeep("int main() { " + repeat("{ ", 100000) +
                          repeat("} ", 100000) + "return 0; }");
}

TEST(ParserNesting, LongIfChainIsRejected) {
  expectRejectedAsTooDeep("int main() { int x; x = 1; " +
                          repeat("if (x) ", 100000) + "x = 2; return x; }");
}

TEST(ParserNesting, ChainAtTheBudgetIsAccepted) {
  // n terms make a tree n levels tall.
  std::string Chain = "1" + repeat(" + 1", kMaxNestingDepth - 1);
  CompilationResult R = compileMiniC("int main() { return " + Chain + "; }",
                                     "edge");
  ASSERT_TRUE(R.Ok) << R.Errors;
  expectRejectedAsTooDeep("int main() { return " + Chain + " + 1; }");
}

/// Deepest statement-plus-expression path under \p S, the depth the
/// recursive walks after parsing descend.
unsigned astDepth(const Stmt *S) {
  if (!S)
    return 0;
  auto H = [](const Expr *E) { return E ? E->getHeight() : 0u; };
  unsigned D = 0;
  if (const auto *C = dyn_cast<CompoundStmt>(S)) {
    for (const StmtPtr &Child : C->getBody())
      D = std::max(D, astDepth(Child.get()));
  } else if (const auto *I = dyn_cast<IfStmt>(S)) {
    D = std::max({H(I->getCond()), astDepth(I->getThen()),
                  astDepth(I->getElse())});
  } else if (const auto *W = dyn_cast<WhileStmt>(S)) {
    D = std::max(H(W->getCond()), astDepth(W->getBody()));
  } else if (const auto *F = dyn_cast<ForStmt>(S)) {
    D = std::max({astDepth(F->getInit()), H(F->getCond()), H(F->getStep()),
                  astDepth(F->getBody())});
  } else if (const auto *R = dyn_cast<ReturnStmt>(S)) {
    D = H(R->getValue());
  } else if (const auto *E = dyn_cast<ExprStmt>(S)) {
    D = H(E->getExpr());
  } else if (const auto *V = dyn_cast<DeclStmt>(S)) {
    D = H(V->getVar()->getInit());
  }
  return D + 1;
}

TEST(ParserNesting, SuiteStaysFarBelowBudget) {
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    auto TU = parseOk(Spec.Source);
    unsigned Deepest = 0;
    for (const DeclPtr &D : TU->Decls)
      if (const auto *F = dyn_cast<FunctionDecl>(D.get()))
        Deepest = std::max(Deepest, astDepth(F->getBody()));
    EXPECT_GT(Deepest, 0u) << Spec.Name;
    EXPECT_LE(Deepest, kMaxNestingDepth / 8) << Spec.Name;
  }
}

} // namespace

//===- tests/CallGraphTests.cpp - weighted call graph tests -------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "callgraph/CallGraphBuilder.h"
#include "callgraph/Reachability.h"
#include "callgraph/Scc.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace impact;
using test::compileOk;

namespace {

CallGraph buildFor(const Module &M, const ProfileData *P = nullptr,
                   CallGraphOptions Opts = CallGraphOptions()) {
  return buildCallGraph(M, P, Opts);
}

//===----------------------------------------------------------------------===//
// SCC utility
//===----------------------------------------------------------------------===//

TEST(Scc, SingleNodes) {
  SccResult R = computeScc({{}, {}, {}});
  EXPECT_EQ(R.NumComponents, 3);
}

TEST(Scc, SimpleCycle) {
  // 0 -> 1 -> 2 -> 0
  SccResult R = computeScc({{1}, {2}, {0}});
  EXPECT_EQ(R.NumComponents, 1);
  EXPECT_EQ(R.ComponentSizes[0], 3u);
}

TEST(Scc, TwoComponentsTopologicalOrder) {
  // 0 -> 1; 1 and 2 form a cycle. Tarjan numbers callee components first.
  SccResult R = computeScc({{1}, {2}, {1}});
  EXPECT_EQ(R.NumComponents, 2);
  EXPECT_LT(R.ComponentIds[1], R.ComponentIds[0])
      << "successor SCC gets the lower id";
  EXPECT_EQ(R.ComponentIds[1], R.ComponentIds[2]);
}

TEST(Scc, SelfLoopIsSingletonComponent) {
  SccResult R = computeScc({{0}, {}});
  EXPECT_EQ(R.NumComponents, 2);
}

TEST(Scc, DeepChainDoesNotOverflow) {
  // 20k-node chain exercises the iterative DFS.
  std::vector<std::vector<int>> Succ(20000);
  for (int I = 0; I + 1 < 20000; ++I)
    Succ[I].push_back(I + 1);
  SccResult R = computeScc(Succ);
  EXPECT_EQ(R.NumComponents, 20000);
}

TEST(Reachability, BasicWalk) {
  auto Set = computeReachableSet({{1}, {2}, {}, {}}, 0);
  EXPECT_TRUE(Set[0]);
  EXPECT_TRUE(Set[1]);
  EXPECT_TRUE(Set[2]);
  EXPECT_FALSE(Set[3]);
}

//===----------------------------------------------------------------------===//
// Graph construction
//===----------------------------------------------------------------------===//

TEST(CallGraph, DirectArcsPerStaticSite) {
  Module M = compileOk("int f() { return 1; }"
                       "int main() { return f() + f(); }");
  CallGraph G = buildFor(M);
  // Two static sites -> two arcs with distinct site ids.
  FuncId F = M.findFunction("f");
  EXPECT_EQ(G.getInArcs(F).size(), 2u);
  uint32_t S0 = G.getArcs()[G.getInArcs(F)[0]].SiteId;
  uint32_t S1 = G.getArcs()[G.getInArcs(F)[1]].SiteId;
  EXPECT_NE(S0, S1);
}

TEST(CallGraph, ExternalCallsRouteToPseudoNode) {
  Module M = compileOk("extern int getchar();"
                       "int main() { return getchar(); }");
  CallGraph G = buildFor(M);
  NodeId Ext = G.getExternalNode();
  ASSERT_EQ(G.getOutArcs(M.MainId).size(), 1u);
  EXPECT_EQ(G.getArcs()[G.getOutArcs(M.MainId)[0]].Callee, Ext);
  EXPECT_EQ(G.getArcs()[G.getOutArcs(M.MainId)[0]].Kind,
            ArcKind::ToExternal);
}

TEST(CallGraph, ExternalNodeFansOutToEveryUserFunction) {
  Module M = compileOk("extern int getchar();"
                       "int helper() { return 2; }"
                       "int main() { return getchar() + helper(); }");
  CallGraph G = buildFor(M);
  // $$$ -> main and $$$ -> helper (worst case).
  EXPECT_EQ(G.getOutArcs(G.getExternalNode()).size(), 2u);
}

TEST(CallGraph, OptimisticModeHasNoExternalFanOut) {
  Module M = compileOk("extern int getchar();"
                       "int helper() { return 2; }"
                       "int main() { return getchar() + helper(); }");
  CallGraphOptions Opts;
  Opts.AssumeExternalsCallBack = false;
  CallGraph G = buildFor(M, nullptr, Opts);
  EXPECT_TRUE(G.getOutArcs(G.getExternalNode()).empty());
}

TEST(CallGraph, PointerCallsRouteToPointerNode) {
  Module M = compileOk(test::kPointerCallProgram);
  CallGraph G = buildFor(M);
  FuncId Apply = M.findFunction("apply");
  bool Found = false;
  for (size_t Index : G.getOutArcs(Apply))
    if (G.getArcs()[Index].Kind == ArcKind::ToPointer) {
      Found = true;
      EXPECT_EQ(G.getArcs()[Index].Callee, G.getPointerNode());
    }
  EXPECT_TRUE(Found);
}

TEST(CallGraph, PointerNodeWidensToAllWithExternals) {
  // kPointerCallProgram calls getchar, so ### reaches every user function,
  // not only the address-taken ones (§2.5 worst case).
  Module M = compileOk(test::kPointerCallProgram);
  CallGraph G = buildFor(M);
  size_t UserFuncs = 0;
  for (const Function &F : M.Funcs)
    UserFuncs += F.IsExternal ? 0 : 1;
  EXPECT_EQ(G.getOutArcs(G.getPointerNode()).size(), UserFuncs);
}

TEST(CallGraph, PointerNodeNarrowsWithoutExternals) {
  Module M = compileOk("int a(int x) { return x; }"
                       "int b(int x) { return x + 1; }"
                       "int unrelated() { return 9; }"
                       "int main() { int (*f)(int); f = a;"
                       "if (unrelated()) f = b; return f(1); }");
  CallGraphOptions Opts;
  Opts.AssumeExternalsCallBack = true; // irrelevant: no externals
  CallGraph G = buildFor(M, nullptr, Opts);
  // Only a and b are address-taken.
  EXPECT_EQ(G.getOutArcs(G.getPointerNode()).size(), 2u);
}

TEST(CallGraph, WeightsComeFromProfile) {
  Module M = compileOk(test::kCallHeavyProgram);
  ProfileResult P = test::profileInputs(M, {"abcd"});
  CallGraph G = buildFor(M, &P.Data);
  EXPECT_DOUBLE_EQ(G.getNodeWeight(M.findFunction("cube")), 4.0);
  bool CheckedArc = false;
  for (const CallArc &Arc : G.getArcs())
    if (Arc.Kind == ArcKind::Direct &&
        Arc.Callee == M.findFunction("cube")) {
      EXPECT_DOUBLE_EQ(Arc.Weight, 4.0);
      CheckedArc = true;
    }
  EXPECT_TRUE(CheckedArc);
}

//===----------------------------------------------------------------------===//
// Recursion detection
//===----------------------------------------------------------------------===//

TEST(CallGraph, SelfRecursionDetected) {
  Module M = compileOk("int f(int n) { return n ? f(n - 1) : 0; }"
                       "int main() { return f(3); }");
  CallGraph G = buildFor(M);
  EXPECT_TRUE(G.isRecursive(M.findFunction("f")));
  EXPECT_FALSE(G.isRecursive(M.MainId));
}

TEST(CallGraph, MutualRecursionDetected) {
  Module M = compileOk(
      "int even(int n) { return n == 0 ? 1 : odd(n - 1); }"
      "int odd(int n) { return n == 0 ? 0 : even(n - 1); }"
      "int main() { return even(4); }");
  CallGraph G = buildFor(M);
  FuncId Even = M.findFunction("even"), Odd = M.findFunction("odd");
  EXPECT_TRUE(G.isRecursive(Even));
  EXPECT_TRUE(G.isRecursive(Odd));
  EXPECT_EQ(G.getDirectSccId(Even), G.getDirectSccId(Odd));
  EXPECT_NE(G.getDirectSccId(Even), G.getDirectSccId(M.MainId));
}

TEST(CallGraph, ExternalCyclesDoNotPolluteDirectRecursion) {
  // Both functions do I/O, so the graph has main -> $$$ -> main paths, but
  // neither is *really* recursive.
  Module M = compileOk("extern int putchar(int c);"
                       "int emit(int c) { return putchar(c); }"
                       "int main() { return emit('x'); }");
  CallGraph G = buildFor(M);
  EXPECT_FALSE(G.isRecursive(M.MainId));
  EXPECT_FALSE(G.isRecursive(M.findFunction("emit")));
}

//===----------------------------------------------------------------------===//
// Reachability / dump
//===----------------------------------------------------------------------===//

TEST(CallGraph, UnreachableFunctionDetectedWithoutExternals) {
  Module M = compileOk("int used() { return 1; }"
                       "int unused() { return 2; }"
                       "int main() { return used(); }");
  CallGraph G = buildFor(M);
  EXPECT_TRUE(G.isReachable(M.findFunction("used")));
  EXPECT_FALSE(G.isReachable(M.findFunction("unused")));
}

TEST(CallGraph, ExternalsKeepEverythingReachable) {
  Module M = compileOk("extern int getchar();"
                       "int unused() { return 2; }"
                       "int main() { return getchar(); }");
  CallGraph G = buildFor(M);
  EXPECT_TRUE(G.isReachable(M.findFunction("unused")))
      << "worst case: the external may call it";
}

TEST(CallGraph, FindArcBySiteId) {
  Module M = compileOk("int f() { return 1; } int main() { return f(); }");
  CallGraph G = buildFor(M);
  // The only direct arc:
  uint32_t Site = 0;
  for (const CallArc &A : G.getArcs())
    if (A.Kind == ArcKind::Direct)
      Site = A.SiteId;
  ASSERT_NE(Site, 0u);
  EXPECT_NE(G.findArcBySite(Site), SIZE_MAX);
  EXPECT_EQ(G.findArcBySite(9999), SIZE_MAX);
  EXPECT_EQ(G.findArcBySite(0), SIZE_MAX);
}

TEST(CallGraph, DotExportIsWellFormed) {
  Module M = compileOk(test::kPointerCallProgram);
  CallGraph G = buildFor(M);
  std::vector<std::string> Names;
  for (const Function &F : M.Funcs)
    Names.push_back(F.Name);
  std::string Dot = G.dumpDot(Names);
  EXPECT_EQ(Dot.substr(0, 8), "digraph ");
  EXPECT_EQ(Dot.back(), '\n');
  EXPECT_NE(Dot.find("$$$"), std::string::npos);
  EXPECT_NE(Dot.find("shape=box"), std::string::npos)
      << "pseudo nodes render as boxes";
  EXPECT_NE(Dot.find("site#"), std::string::npos);
  EXPECT_NE(Dot.find("->"), std::string::npos);
  // Balanced braces.
  EXPECT_NE(Dot.find("}\n"), std::string::npos);
}

TEST(CallGraph, DotMarksRecursionAndUnreachable) {
  Module M = compileOk("int f(int n) { return n ? f(n - 1) : 0; }"
                       "int dead() { return 1; }"
                       "int main() { return f(3); }");
  CallGraph G = buildFor(M);
  std::vector<std::string> Names;
  for (const Function &F : M.Funcs)
    Names.push_back(F.Name);
  std::string Dot = G.dumpDot(Names);
  EXPECT_NE(Dot.find("penwidth=2"), std::string::npos) << "recursive f";
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos)
      << "unreachable dead()";
}

TEST(CallGraph, DumpMentionsPseudoNodes) {
  Module M = compileOk(test::kPointerCallProgram);
  CallGraph G = buildFor(M);
  std::vector<std::string> Names;
  for (const Function &F : M.Funcs)
    Names.push_back(F.Name);
  std::string Text = G.dump(Names);
  EXPECT_NE(Text.find("$$$"), std::string::npos);
  EXPECT_NE(Text.find("###"), std::string::npos);
  EXPECT_NE(Text.find("apply"), std::string::npos);
}

} // namespace

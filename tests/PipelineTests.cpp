//===- tests/PipelineTests.cpp - end-to-end pipeline tests --------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "ir/IrVerifier.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace impact;

namespace {

std::vector<RunInput> singleStream(std::initializer_list<std::string> Ins) {
  std::vector<RunInput> Result;
  for (const std::string &In : Ins)
    Result.push_back(RunInput{In, ""});
  return Result;
}

TEST(Pipeline, RunsEndToEnd) {
  // Inputs long enough that the hot sites clear the weight-10 threshold.
  PipelineResult R = runPipeline(
      test::kCallHeavyProgram, "demo",
      singleStream({std::string(40, 'a'), std::string(25, 'b'),
                    std::string(33, 'c')}));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.outputsMatch());
  EXPECT_GT(R.Before.AvgCalls, 0.0);
  EXPECT_GT(R.getCallDecreasePercent(), 0.0);
  EXPECT_GE(R.getCodeIncreasePercent(), 0.0);
  EXPECT_EQ(verifyModuleText(R.FinalModule), "");
}

TEST(Pipeline, CompilationErrorsSurface) {
  PipelineResult R = runPipeline("int main() { return undefined_name; }",
                                 "bad", singleStream({""}));
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("compilation failed"), std::string::npos);
}

TEST(Pipeline, ProfilingFailureSurfaces) {
  PipelineResult R = runPipeline(
      "int main() { int z; z = 0; return 1 / z; }", "trap",
      singleStream({""}));
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("profiling failed"), std::string::npos);
}

TEST(Pipeline, MetricsAreConsistent) {
  PipelineResult R = runPipeline(test::kCallHeavyProgram, "demo",
                                 singleStream({std::string(30, 'x')}));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.Before.AvgInstrs, 0.0);
  EXPECT_GE(R.After.AvgInstrs, R.Before.AvgInstrs)
      << "parameter moves and jumps add instructions without post-opt";
  EXPECT_LT(R.After.AvgCalls, R.Before.AvgCalls);
  EXPECT_GT(R.After.getInstrsPerCall(), R.Before.getInstrsPerCall());
}

TEST(Pipeline, ClassSplitsCoverAllCalls) {
  PipelineResult R = runPipeline(test::kPointerCallProgram, "ptr",
                                 singleStream({std::string(40, 'a')}));
  ASSERT_TRUE(R.Ok) << R.Error;
  double Sum = R.Before.DynExternal + R.Before.DynPointer +
               R.Before.DynUnsafe + R.Before.DynSafe;
  EXPECT_NEAR(Sum, R.Before.AvgCalls, 1e-6);
}

TEST(Pipeline, PostInlineOptimizeShrinksCode) {
  PipelineOptions Plain;
  PipelineOptions WithPost;
  WithPost.Inline.PostInlineOptimize = true;
  auto Inputs = singleStream({std::string(30, 'x')});
  PipelineResult A =
      runPipeline(test::kCallHeavyProgram, "plain", Inputs, Plain);
  PipelineResult B =
      runPipeline(test::kCallHeavyProgram, "post", Inputs, WithPost);
  ASSERT_TRUE(A.Ok && B.Ok);
  EXPECT_TRUE(B.outputsMatch());
  EXPECT_LE(B.After.StaticSize, A.After.StaticSize);
  EXPECT_LE(B.After.AvgInstrs, A.After.AvgInstrs)
      << "§4.4: comprehensive post-inline optimization reduces IL's";
}

TEST(Pipeline, PreOptCanBeDisabled) {
  PipelineOptions NoPre;
  NoPre.RunPreOpt = false;
  PipelineResult R = runPipeline(test::kCallHeavyProgram, "nopre",
                                 singleStream({"abc"}), NoPre);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.outputsMatch());
}

TEST(Pipeline, CallLightProgramSeesNoChange) {
  // A tee-like program: all calls external.
  const char *Src = "extern int getchar(); extern int putchar(int c);"
                    "int main() { int c; c = getchar();"
                    "while (c != -1) { putchar(c); c = getchar(); }"
                    "return 0; }";
  PipelineResult R = runPipeline(Src, "tee-ish", singleStream({"hello"}));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.getCallDecreasePercent(), 0.0);
  EXPECT_EQ(R.getCodeIncreasePercent(), 0.0);
  EXPECT_EQ(R.Inline.getNumExpanded(), 0u);
}

TEST(Pipeline, StackBoundPreventsHazardousExpansion) {
  PipelineOptions Tight;
  Tight.Inline.StackBound = 100;
  PipelineResult R = runPipeline(test::kRecursiveProgram, "rec",
                                 singleStream({std::string(11, 'x')}), Tight);
  ASSERT_TRUE(R.Ok) << R.Error;
  for (const PlannedSite &S : R.Inline.Plan.Sites)
    if (S.Callee == R.FinalModule.findFunction("bigframe")) {
      EXPECT_NE(S.Status, ArcStatus::Expanded);
    }
  EXPECT_TRUE(R.outputsMatch());
}

TEST(Pipeline, HotCycleExpandsInTheOrderedDirectionOnly) {
  // A two-function cycle with hot arcs, shaped like yacc's parse_symbol /
  // parse_seq. seq runs more often, so it precedes sym in the linear
  // order: sym -> seq is expanded; seq -> sym and the self arc seq -> seq
  // are order violations. The recursion itself refuses nothing.
  const char *Source = R"MC(
extern int getchar();
extern int print_int(int v);
int seq(int n) {
  if (n <= 0) return 0;
  return sym(n - 1) + seq(n - 1);
}
int sym(int n) {
  if (n <= 0) return 1;
  return seq(n - 1) * 2 + n;
}
int main() {
  int c;
  int d;
  d = 0;
  c = getchar();
  while (c != -1) { d = d + 1; c = getchar(); }
  print_int(sym(d));
  return 0;
}
)MC";
  auto Inputs = singleStream({std::string(10, 'x'), std::string(12, 'y')});
  std::vector<std::string> Outputs;
  for (ExecEngine Engine : {ExecEngine::Walker, ExecEngine::Vm}) {
    PipelineOptions Options;
    Options.Engine = Engine;
    Options.Analyze = true;
    Options.Inline.CodeGrowthFactor = 4.0; // a tiny program: room for seq
    PipelineResult R = runPipeline(Source, "cycle", Inputs, Options);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.outputsMatch());
    EXPECT_FALSE(R.Analysis.hasErrors()) << R.Analysis.renderText();
    for (const Finding &F : R.Analysis.Findings)
      EXPECT_NE(F.Rule, kRuleAuditWeightConservation) << F.render();

    FuncId Seq = R.FinalModule.findFunction("seq");
    FuncId Sym = R.FinalModule.findFunction("sym");
    auto verdictOf = [&](FuncId Caller, FuncId Callee) {
      for (const PlannedSite &S : R.Inline.Plan.Sites)
        if (S.Caller == Caller && S.Callee == Callee)
          return S;
      ADD_FAILURE() << "no planned arc";
      return PlannedSite();
    };
    PlannedSite Forward = verdictOf(Sym, Seq);
    EXPECT_EQ(Forward.Verdict, CostVerdict::Acceptable);
    EXPECT_EQ(Forward.Status, ArcStatus::Expanded);
    EXPECT_EQ(verdictOf(Seq, Sym).Verdict, CostVerdict::OrderViolation);
    EXPECT_EQ(verdictOf(Seq, Seq).Verdict, CostVerdict::OrderViolation);
    EXPECT_LT(R.After.AvgCalls, R.Before.AvgCalls);
    Outputs.insert(Outputs.end(), R.OutputsAfter.begin(),
                   R.OutputsAfter.end());
  }
  ASSERT_EQ(Outputs.size(), 4u);
  EXPECT_EQ(Outputs[0], Outputs[2]) << "walker and VM agree";
  EXPECT_EQ(Outputs[1], Outputs[3]) << "walker and VM agree";
}

TEST(Pipeline, ModuleOverloadAcceptsCompiledModule) {
  Module M = test::compileOk(test::kCallHeavyProgram);
  PipelineResult R = runPipeline(std::move(M), singleStream({"abc"}));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.outputsMatch());
}

TEST(Pipeline, InvalidModuleRejected) {
  Module M; // no main
  PipelineResult R = runPipeline(std::move(M), singleStream({""}));
  EXPECT_FALSE(R.Ok);
}

} // namespace

//===- tests/PipelineTests.cpp - end-to-end pipeline tests --------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "driver/FunctionCache.h"
#include "ir/IrVerifier.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <iterator>
#include <set>

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

TEST(Pipeline, CacheKeyCoversEveryOptOption) {
  // The cache-key staleness bug, pinned exhaustively: makeKey once
  // fingerprinted only a subset of OptOptions, so two configurations
  // differing in an unfingerprinted pass shared a cache slot and the
  // second silently spliced a body optimized under the first. Perturb
  // every field one at a time from the defaults; each perturbation must
  // produce a distinct key. (FunctionCache.cpp's static_assert on
  // sizeof(OptOptions) makes a *new* field a compile error until its
  // fingerprint — and a line here — exist.)
  Module M = test::compileOk(test::kCallHeavyProgram);
  const Function *Def = nullptr;
  for (const Function &F : M.Funcs)
    if (!F.IsExternal) {
      Def = &F;
      break;
    }
  ASSERT_NE(Def, nullptr);

  constexpr bool OptOptions::*Flags[] = {
      &OptOptions::ConstantFolding,
      &OptOptions::JumpOptimization,
      &OptOptions::CopyPropagation,
      &OptOptions::DeadCodeElimination,
      &OptOptions::TailRecursionElimination,
      &OptOptions::LoopInvariantCodeMotion,
  };
  std::set<std::string> Keys;
  Keys.insert(FunctionDefinitionCache::makeKey(*Def, OptOptions()));
  for (bool OptOptions::*Flag : Flags) {
    OptOptions Opts;
    Opts.*Flag = !(Opts.*Flag);
    Keys.insert(FunctionDefinitionCache::makeKey(*Def, Opts));
  }
  EXPECT_EQ(Keys.size(), std::size(Flags) + 1)
      << "some OptOptions field is missing from makeKey's fingerprint";
}

} // namespace

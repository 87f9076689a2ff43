//===- tests/ClassifierTests.cpp - call-site classification tests -------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CallSiteClassifier.h"

#include "callgraph/CallGraphBuilder.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace impact;
using test::compileOk;

namespace {

struct Classified {
  Module M;
  Classification Classes;
};

Classified classify(const char *Source, const std::vector<std::string> &Inputs,
                    InlineOptions Options = InlineOptions()) {
  Classified Result{compileOk(Source), {}};
  ProfileResult P = test::profileInputs(Result.M, Inputs);
  EXPECT_TRUE(P.allRunsOk());
  CallGraphOptions GraphOpts;
  GraphOpts.AssumeExternalsCallBack = Options.AssumeExternalsCallBack;
  CallGraph G = buildCallGraph(Result.M, &P.Data, GraphOpts);
  Result.Classes = classifyCallSites(Result.M, G, P.Data, Options);
  return Result;
}

TEST(Classifier, ExternalSites) {
  auto R = classify("extern int getchar();"
                    "int main() { int c; c = getchar();"
                    "while (c != -1) c = getchar(); return 0; }",
                    {std::string(30, 'x')});
  EXPECT_EQ(R.Classes.getTotalSites(), 2u);
  EXPECT_EQ(R.Classes.countStatic(SiteClass::External), 2u);
  EXPECT_EQ(R.Classes.countStatic(SiteClass::Safe), 0u);
}

TEST(Classifier, PointerSites) {
  auto R = classify(test::kPointerCallProgram, {std::string(40, 'a')});
  EXPECT_EQ(R.Classes.countStatic(SiteClass::Pointer), 1u);
}

TEST(Classifier, HotDirectSiteIsSafe) {
  auto R = classify(test::kCallHeavyProgram, {std::string(50, 'x')});
  // square-from-cube and cube-from-accumulate run 50 times: safe.
  EXPECT_GE(R.Classes.countStatic(SiteClass::Safe), 2u);
}

TEST(Classifier, ColdSiteIsUnsafeLowWeight) {
  auto R = classify("int rare() { return 1; }"
                    "int main() { return rare(); }",
                    {""});
  ASSERT_EQ(R.Classes.getTotalSites(), 1u);
  EXPECT_EQ(R.Classes.Sites[0].Class, SiteClass::Unsafe);
  EXPECT_EQ(R.Classes.Sites[0].Reason, UnsafeReason::LowWeight);
}

TEST(Classifier, ThresholdBoundaryIsInclusive) {
  // Weight exactly 10 is safe (paper: count < 10 is unsafe).
  std::string Input(10, 'x');
  auto R = classify("extern int getchar();"
                    "int leaf(int c) { return c * 2; }"
                    "int main() { int c; int t; t = 0; c = getchar();"
                    "while (c != -1) { t = t + leaf(c); c = getchar(); }"
                    "return t; }",
                    {Input});
  const SiteInfo *Leaf = nullptr;
  for (const SiteInfo &S : R.Classes.Sites)
    if (S.Callee == R.M.findFunction("leaf"))
      Leaf = &S;
  ASSERT_NE(Leaf, nullptr);
  EXPECT_DOUBLE_EQ(Leaf->Weight, 10.0);
  EXPECT_EQ(Leaf->Class, SiteClass::Safe);
}

TEST(Classifier, SelfCallsFollowTheStackAndWeightRules) {
  // No rule refuses a call for being recursive as such: fib's two hot,
  // small-frame self-calls are safe, and only the stack and weight rules
  // can make them unsafe (the planner's linear order refuses self arcs).
  const char *Fib = "int fib(int n) { if (n < 2) return n;"
                    "return fib(n - 1) + fib(n - 2); }"
                    "int main() { return fib(14); }";
  auto selfCalls = [](const Classified &R) {
    FuncId F = R.M.findFunction("fib");
    std::vector<SiteInfo> Sites;
    for (const SiteInfo &S : R.Classes.Sites)
      if (S.Caller == F && S.Callee == F)
        Sites.push_back(S);
    return Sites;
  };

  auto Default = classify(Fib, {""});
  ASSERT_EQ(selfCalls(Default).size(), 2u) << "both fib self-calls";
  for (const SiteInfo &S : selfCalls(Default))
    EXPECT_EQ(S.Class, SiteClass::Safe);

  InlineOptions Tight;
  Tight.StackBound = 0; // below fib's frame
  for (const SiteInfo &S : selfCalls(classify(Fib, {""}, Tight)))
    EXPECT_EQ(S.Reason, UnsafeReason::StackHazard);

  InlineOptions Picky;
  Picky.MinArcWeight = 1e9;
  for (const SiteInfo &S : selfCalls(classify(Fib, {""}, Picky)))
    EXPECT_EQ(S.Reason, UnsafeReason::LowWeight);
}

TEST(Classifier, StackHazardDetected) {
  // Recursive driver calls a large-frame helper hot enough to pass the
  // weight filter: the stack hazard must fire.
  InlineOptions Options;
  Options.StackBound = 1000;
  auto R = classify(test::kRecursiveProgram, {std::string(11, 'x')},
                    Options);
  const SiteInfo *Hazard = nullptr;
  for (const SiteInfo &S : R.Classes.Sites)
    if (S.Callee == R.M.findFunction("bigframe"))
      Hazard = &S;
  ASSERT_NE(Hazard, nullptr);
  EXPECT_EQ(Hazard->Class, SiteClass::Unsafe);
  EXPECT_EQ(Hazard->Reason, UnsafeReason::StackHazard);
}

TEST(Classifier, StackHazardClearedByLargeBound) {
  InlineOptions Options;
  Options.StackBound = 100000;
  auto R = classify(test::kRecursiveProgram, {std::string(11, 'x')},
                    Options);
  const SiteInfo *Site = nullptr;
  for (const SiteInfo &S : R.Classes.Sites)
    if (S.Callee == R.M.findFunction("bigframe"))
      Site = &S;
  ASSERT_NE(Site, nullptr);
  EXPECT_NE(Site->Reason, UnsafeReason::StackHazard);
}

TEST(Classifier, DynamicSumsMatchClassTotals) {
  auto R = classify(test::kCallHeavyProgram, {std::string(25, 'x')});
  double Total = R.Classes.sumDynamicTotal();
  double ByClass =
      R.Classes.sumDynamic(SiteClass::External) +
      R.Classes.sumDynamic(SiteClass::Pointer) +
      R.Classes.sumDynamic(SiteClass::Unsafe) +
      R.Classes.sumDynamic(SiteClass::Safe);
  EXPECT_DOUBLE_EQ(Total, ByClass);
  EXPECT_GT(Total, 0.0);
}

TEST(Classifier, FindSiteById) {
  auto R = classify(test::kCallHeavyProgram, {"xxxx"});
  ASSERT_FALSE(R.Classes.Sites.empty());
  uint32_t Id = R.Classes.Sites[0].SiteId;
  EXPECT_EQ(R.Classes.findSite(Id), &R.Classes.Sites[0]);
  EXPECT_EQ(R.Classes.findSite(0), nullptr);
}

TEST(Classifier, NamesAreStable) {
  EXPECT_STREQ(getSiteClassName(SiteClass::External), "external");
  EXPECT_STREQ(getSiteClassName(SiteClass::Pointer), "pointer");
  EXPECT_STREQ(getSiteClassName(SiteClass::Unsafe), "unsafe");
  EXPECT_STREQ(getSiteClassName(SiteClass::Safe), "safe");
  EXPECT_STREQ(getUnsafeReasonName(UnsafeReason::StackHazard),
               "stack-hazard");
}

} // namespace

//===- tests/PlannerTests.cpp - cost function and planner tests ---------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/InlineCost.h"
#include "core/InlinePlanner.h"

#include "callgraph/CallGraphBuilder.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace impact;
using test::compileOk;

namespace {

struct PlanFixture {
  Module M;
  CallGraph G;
  Classification Classes;
  Linearization Linear;
  InlinePlan Plan;
};

PlanFixture plan(const char *Source, const std::vector<std::string> &Inputs,
                 InlineOptions Options = InlineOptions()) {
  PlanFixture Fx{compileOk(Source), CallGraph(0), {}, {}, {}};
  ProfileResult P = test::profileInputs(Fx.M, Inputs);
  EXPECT_TRUE(P.allRunsOk());
  CallGraphOptions GraphOpts;
  GraphOpts.AssumeExternalsCallBack = Options.AssumeExternalsCallBack;
  Fx.G = buildCallGraph(Fx.M, &P.Data, GraphOpts);
  Fx.Classes = classifyCallSites(Fx.M, Fx.G, P.Data, Options);
  Fx.Linear = linearize(Fx.M, Fx.G, Options);
  Fx.Plan = planInlining(Fx.M, Fx.G, Fx.Classes, Fx.Linear, Options);
  return Fx;
}

const PlannedSite *findByCallee(const PlanFixture &Fx, const char *Name) {
  FuncId Callee = Fx.M.findFunction(Name);
  for (const PlannedSite &S : Fx.Plan.Sites)
    if (S.Callee == Callee)
      return &S;
  return nullptr;
}

TEST(Planner, HotSafeSitesAreAccepted) {
  PlanFixture Fx = plan(test::kCallHeavyProgram, {std::string(40, 'x')});
  const PlannedSite *Square = findByCallee(Fx, "square");
  ASSERT_NE(Square, nullptr);
  EXPECT_EQ(Square->Status, ArcStatus::ToBeExpanded);
  EXPECT_GE(Fx.Plan.ExpansionOrder.size(), 2u);
}

TEST(Planner, ExternalAndPointerArcsNotExpandable) {
  PlanFixture Fx = plan(test::kPointerCallProgram, {std::string(30, 'a')});
  for (const PlannedSite &S : Fx.Plan.Sites)
    if (S.Callee == kNoFunc) {
      EXPECT_EQ(S.Status, ArcStatus::NotExpandable);
    }
}

TEST(Planner, LowWeightArcsRejected) {
  PlanFixture Fx = plan("int rare() { return 1; }"
                        "int main() { return rare(); }",
                        {""});
  const PlannedSite *Rare = findByCallee(Fx, "rare");
  ASSERT_NE(Rare, nullptr);
  EXPECT_EQ(Rare->Status, ArcStatus::Rejected);
  EXPECT_EQ(Rare->Verdict, CostVerdict::LowWeight);
}

TEST(Planner, RecursiveArcsRejected) {
  // A self arc never passes the linear order: fib does not precede fib.
  PlanFixture Fx = plan("int fib(int n) { if (n < 2) return n;"
                        "return fib(n - 1) + fib(n - 2); }"
                        "int main() { return fib(16); }",
                        {""});
  FuncId Fib = Fx.M.findFunction("fib");
  size_t SelfArcs = 0;
  for (const PlannedSite &S : Fx.Plan.Sites)
    if (S.Caller == Fib && S.Callee == Fib) {
      ++SelfArcs;
      EXPECT_EQ(S.Verdict, CostVerdict::OrderViolation);
      EXPECT_EQ(S.Status, ArcStatus::NotExpandable);
    }
  EXPECT_EQ(SelfArcs, 2u);
}

TEST(Planner, LargeFrameCycleMemberIsAStackHazard) {
  // sym and seq form a cycle; seq runs more often, so it precedes sym and
  // the arc sym -> seq passes the linear order. seq's frame is above the
  // default bound, so only the stack hazard keeps it out of sym.
  const char *Source =
      "extern int getchar();"
      "int seq(int n) { int buf[3000]; buf[0] = n; buf[2999] = n;"
      "  if (n <= 0) return buf[0];"
      "  return sym(n - 1) + seq(n - 1) + buf[2999]; }"
      "int sym(int n) { if (n <= 0) return 1; return seq(n - 1) * 2; }"
      "int main() { int c; int d; d = 0; c = getchar();"
      "while (c != -1) { d = d + 1; c = getchar(); } return sym(d) % 97; }";
  auto symToSeq = [](const PlanFixture &Fx) {
    FuncId Sym = Fx.M.findFunction("sym"), Seq = Fx.M.findFunction("seq");
    for (const PlannedSite &S : Fx.Plan.Sites)
      if (S.Caller == Sym && S.Callee == Seq)
        return &S;
    return static_cast<const PlannedSite *>(nullptr);
  };

  InlineOptions Options;
  Options.CodeGrowthFactor = 4.0; // a tiny program: room for seq
  PlanFixture AtDefaultBound = plan(Source, {std::string(8, 'x')}, Options);
  const PlannedSite *Refused = symToSeq(AtDefaultBound);
  ASSERT_NE(Refused, nullptr);
  EXPECT_EQ(Refused->Verdict, CostVerdict::StackHazard);
  EXPECT_EQ(Refused->Status, ArcStatus::Rejected);
  const SiteInfo *Info = AtDefaultBound.Classes.findSite(Refused->SiteId);
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->Reason, UnsafeReason::StackHazard);

  Options.StackBound = 1 << 20;
  PlanFixture Loose = plan(Source, {std::string(8, 'x')}, Options);
  const PlannedSite *Accepted = symToSeq(Loose);
  ASSERT_NE(Accepted, nullptr);
  EXPECT_EQ(Accepted->Verdict, CostVerdict::Acceptable);
  EXPECT_EQ(Accepted->Status, ArcStatus::ToBeExpanded);
}

TEST(Planner, BudgetRejectsWhenExhausted) {
  InlineOptions Options;
  Options.CodeGrowthFactor = 1.0; // no growth allowed at all
  PlanFixture Fx =
      plan(test::kCallHeavyProgram, {std::string(40, 'x')}, Options);
  EXPECT_TRUE(Fx.Plan.ExpansionOrder.empty());
  for (const PlannedSite &S : Fx.Plan.Sites)
    if (S.Callee != kNoFunc && S.Verdict == CostVerdict::BudgetExceeded) {
      EXPECT_EQ(S.Status, ArcStatus::Rejected);
    }
  EXPECT_EQ(Fx.Plan.ProjectedProgramSize, Fx.Plan.OriginalProgramSize);
}

TEST(Planner, BudgetPrefersHeavierArcs) {
  // With a budget that only fits one expansion, the heavier arc wins.
  const char *Source =
      "extern int getchar();"
      "int hot(int x) { return x + 1; }"
      "int cold(int x) { return x + 2; }"
      "int main() { int c; int t; t = 0; c = getchar();"
      "while (c != -1) { t = hot(t); if (c == 'q') t = cold(t);"
      "c = getchar(); } return t; }";
  InlineOptions Options;
  Options.MinArcWeight = 1.0;
  Options.CodeGrowthFactor = 1.12; // fits roughly one small callee
  PlanFixture Fx = plan(Source, {std::string(60, 'q')}, Options);
  const PlannedSite *Hot = findByCallee(Fx, "hot");
  ASSERT_NE(Hot, nullptr);
  EXPECT_EQ(Hot->Status, ArcStatus::ToBeExpanded)
      << "hot(60/run) must be chosen before cold(60/run ties? no: cold "
         "also 60...)";
}

TEST(Planner, OrderViolationsNotExpandable) {
  // Force a linearization where callees follow callers: SourceOrder with
  // the callee declared after the caller.
  const char *Source =
      "extern int getchar();"
      "int driver(int x) { return helper(x) + 1; }"
      "int helper(int x) { return x * 2; }"
      "int main() { int c; int t; t = 0; c = getchar();"
      "while (c != -1) { t = driver(t); c = getchar(); } return t; }";
  InlineOptions Options;
  Options.Policy = LinearizationPolicy::SourceOrder;
  PlanFixture Fx = plan(Source, {std::string(30, 'x')}, Options);
  const PlannedSite *Helper = findByCallee(Fx, "helper");
  ASSERT_NE(Helper, nullptr);
  EXPECT_EQ(Helper->Verdict, CostVerdict::OrderViolation);
  EXPECT_EQ(Helper->Status, ArcStatus::NotExpandable);
}

TEST(Planner, ExpansionOrderFollowsLinearSequence) {
  PlanFixture Fx = plan(test::kCallHeavyProgram, {std::string(40, 'x')});
  // Map each expansion-site to its caller; caller positions must be
  // non-decreasing.
  size_t LastPos = 0;
  for (uint32_t Site : Fx.Plan.ExpansionOrder) {
    const PlannedSite *S = Fx.Plan.findSite(Site);
    ASSERT_NE(S, nullptr);
    size_t Pos = Fx.Linear.Position[static_cast<size_t>(S->Caller)];
    EXPECT_GE(Pos, LastPos);
    LastPos = Pos;
  }
}

TEST(Planner, EstimatesGrowWithAcceptance) {
  PlanFixture Fx = plan(test::kCallHeavyProgram, {std::string(40, 'x')});
  EXPECT_GT(Fx.Plan.ProjectedProgramSize, Fx.Plan.OriginalProgramSize);
  EXPECT_LE(Fx.Plan.ProjectedProgramSize, Fx.Plan.ProgramSizeBudget);
}

TEST(Planner, StatusCountsConsistent) {
  PlanFixture Fx = plan(test::kCallHeavyProgram, {std::string(40, 'x')});
  size_t Total = Fx.Plan.countStatus(ArcStatus::NotExpandable) +
                 Fx.Plan.countStatus(ArcStatus::Rejected) +
                 Fx.Plan.countStatus(ArcStatus::ToBeExpanded) +
                 Fx.Plan.countStatus(ArcStatus::Expanded);
  EXPECT_EQ(Total, Fx.Plan.Sites.size());
  EXPECT_EQ(Fx.Plan.countStatus(ArcStatus::ToBeExpanded),
            Fx.Plan.ExpansionOrder.size());
}

TEST(InlineCost, EstimatesFromModule) {
  Module M = compileOk(test::kCallHeavyProgram);
  CostEstimates Est = CostEstimates::fromModule(M, 1.5);
  EXPECT_EQ(Est.ProgramSize, M.size());
  EXPECT_EQ(Est.ProgramSizeBudget,
            static_cast<uint64_t>(static_cast<double>(M.size()) * 1.5));
  FuncId Square = M.findFunction("square");
  EXPECT_EQ(Est.FuncSize[static_cast<size_t>(Square)],
            M.getFunction(Square).size());
}

TEST(InlineCost, ApplyExpansionUpdatesTallies) {
  Module M = compileOk(test::kCallHeavyProgram);
  CostEstimates Est = CostEstimates::fromModule(M, 2.0);
  FuncId Cube = M.findFunction("cube");
  FuncId Square = M.findFunction("square");
  uint64_t CubeBefore = Est.FuncSize[static_cast<size_t>(Cube)];
  uint64_t SquareSize = Est.FuncSize[static_cast<size_t>(Square)];
  uint64_t ProgramBefore = Est.ProgramSize;
  Est.applyExpansion(Cube, Square);
  EXPECT_EQ(Est.FuncSize[static_cast<size_t>(Cube)],
            CubeBefore + SquareSize);
  EXPECT_EQ(Est.ProgramSize, ProgramBefore + SquareSize);
}

TEST(InlineCost, VerdictNamesStable) {
  EXPECT_STREQ(getCostVerdictName(CostVerdict::Acceptable), "acceptable");
  EXPECT_STREQ(getCostVerdictName(CostVerdict::BudgetExceeded),
               "budget-exceeded");
  EXPECT_STREQ(getArcStatusName(ArcStatus::ToBeExpanded), "to-be-expanded");
}

} // namespace

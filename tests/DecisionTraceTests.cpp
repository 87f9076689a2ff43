//===- tests/DecisionTraceTests.cpp - per-arc decision trace ------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision trace must explain every ruling with the numbers it was
/// decided on: unit coverage for each CostVerdict's DecisionNumbers and
/// reason line, plus byte-exact golden tables for two suite programs (tee:
/// nothing expandable; grep: acceptances, recursion, and budget
/// rejections in one plan).
///
//===----------------------------------------------------------------------===//

#include "driver/DecisionTrace.h"

#include "core/InlinePass.h"
#include "driver/Pipeline.h"
#include "suite/Suite.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <ostream>

using namespace impact;
using test::compileOk;

namespace {

struct Planned {
  Module M;
  InlineResult Inline;
};

/// Profiles \p Source on \p Input and runs the full expansion procedure.
Planned planProgram(const char *Source, const std::string &Input,
                    InlineOptions Options = InlineOptions()) {
  Planned P{compileOk(Source), {}};
  ProfileResult Prof = test::profileInputs(P.M, {Input});
  EXPECT_TRUE(Prof.allRunsOk());
  P.Inline = runInlineExpansion(P.M, Prof.Data, Options);
  return P;
}

/// First planned site for the caller/callee name pair, or nullptr.
const PlannedSite *findArc(const Planned &P, const char *Caller,
                           const char *Callee) {
  FuncId CallerId = P.M.findFunction(Caller);
  FuncId CalleeId = P.M.findFunction(Callee);
  for (const PlannedSite &S : P.Inline.Plan.Sites)
    if (S.Caller == CallerId && S.Callee == CalleeId)
      return &S;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// DecisionNumbers per verdict
//===----------------------------------------------------------------------===//

TEST(DecisionTrace, AcceptedArcCarriesTheComparison) {
  InlineOptions Options;
  Options.MinArcWeight = 1.0;
  Options.CodeGrowthFactor = 8.0;
  Planned P = planProgram(test::kCallHeavyProgram, std::string(30, 'x'),
                          Options);
  const PlannedSite *S = findArc(P, "cube", "square");
  ASSERT_NE(S, nullptr);
  ASSERT_EQ(S->Verdict, CostVerdict::Acceptable);
  EXPECT_DOUBLE_EQ(S->Numbers.Weight, S->Weight);
  EXPECT_DOUBLE_EQ(S->Numbers.WeightThreshold, 1.0);
  EXPECT_GT(S->Numbers.CalleeSize, 0u);
  EXPECT_LE(S->Numbers.ProgramSize + S->Numbers.CalleeSize,
            S->Numbers.ProgramSizeBudget);
  std::string Reason = formatDecisionReason(*S, P.M);
  EXPECT_NE(Reason.find(">= threshold"), std::string::npos) << Reason;
  EXPECT_NE(Reason.find("<= budget"), std::string::npos) << Reason;
}

TEST(DecisionTrace, LowWeightQuotesWeightAndThreshold) {
  InlineOptions Options;
  Options.MinArcWeight = 1e9; // reject everything on weight
  Planned P = planProgram(test::kCallHeavyProgram, std::string(30, 'x'),
                          Options);
  const PlannedSite *S = findArc(P, "cube", "square");
  ASSERT_NE(S, nullptr);
  ASSERT_EQ(S->Verdict, CostVerdict::LowWeight);
  EXPECT_EQ(S->Status, ArcStatus::Rejected);
  EXPECT_DOUBLE_EQ(S->Numbers.WeightThreshold, 1e9);
  EXPECT_LT(S->Numbers.Weight, S->Numbers.WeightThreshold);
  std::string Reason = formatDecisionReason(*S, P.M);
  EXPECT_NE(Reason.find("< threshold"), std::string::npos) << Reason;
  EXPECT_NE(Reason.find("1000000000.00"), std::string::npos)
      << "threshold value must appear verbatim: " << Reason;
}

TEST(DecisionTrace, BudgetExceededQuotesSizesAndBudget) {
  InlineOptions Options;
  Options.MinArcWeight = 1.0;
  Options.CodeGrowthFactor = 1.0; // zero headroom: nothing fits
  Planned P = planProgram(test::kCallHeavyProgram, std::string(30, 'x'),
                          Options);
  const PlannedSite *S = findArc(P, "cube", "square");
  ASSERT_NE(S, nullptr);
  ASSERT_EQ(S->Verdict, CostVerdict::BudgetExceeded);
  EXPECT_GT(S->Numbers.ProgramSize + S->Numbers.CalleeSize,
            S->Numbers.ProgramSizeBudget);
  std::string Reason = formatDecisionReason(*S, P.M);
  EXPECT_NE(Reason.find("> budget"), std::string::npos) << Reason;
  EXPECT_NE(Reason.find(std::to_string(S->Numbers.ProgramSizeBudget)),
            std::string::npos)
      << Reason;
}

TEST(DecisionTrace, StackHazardQuotesWordsAndBound) {
  // walk is recursive and bigframe's activation (5000+ words) exceeds
  // the default 2048-word bound. bigframe runs twice per walk call so
  // it precedes walk in the linear order — the stack hazard, not an
  // order violation, is what refuses the arc.
  const char *Source = R"MC(
extern int getchar();
extern int print_int(int v);
extern int putchar(int c);

int bigframe(int x) {
  int buf[5000];
  buf[0] = x;
  buf[4999] = x + 1;
  return buf[0] + buf[4999];
}

int walk(int n) {
  if (n < 1) return 0;
  return walk(n - 1) + bigframe(n) + bigframe(n);
}

int main() {
  int c;
  int n;
  n = 0;
  c = getchar();
  while (c != -1) {
    n = n + 1;
    c = getchar();
  }
  print_int(walk(n));
  putchar('\n');
  return 0;
}
)MC";
  Planned P = planProgram(Source, std::string(12, 'x'));
  const PlannedSite *S = findArc(P, "walk", "bigframe");
  ASSERT_NE(S, nullptr);
  ASSERT_EQ(S->Verdict, CostVerdict::StackHazard);
  EXPECT_TRUE(S->Numbers.CallerRecursive);
  EXPECT_GT(S->Numbers.CalleeStackWords, S->Numbers.StackBound);
  std::string Reason = formatDecisionReason(*S, P.M);
  EXPECT_NE(Reason.find("words > bound"), std::string::npos) << Reason;
  EXPECT_NE(Reason.find(std::to_string(S->Numbers.CalleeStackWords)),
            std::string::npos)
      << Reason;
}

TEST(DecisionTrace, RecursiveCycleNamesBothEnds) {
  Planned P = planProgram(test::kRecursiveProgram, std::string(9, 'x'));
  const PlannedSite *S = findArc(P, "fib", "fib");
  ASSERT_NE(S, nullptr);
  ASSERT_EQ(S->Verdict, CostVerdict::RecursiveCycle);
  std::string Reason = formatDecisionReason(*S, P.M);
  EXPECT_NE(Reason.find("'fib'"), std::string::npos) << Reason;
  EXPECT_NE(Reason.find("recursion cycle"), std::string::npos) << Reason;
}

TEST(DecisionTrace, PointerAndExternalSitesAreExplained) {
  Planned P = planProgram(test::kPointerCallProgram, "xy");
  bool SawPointer = false, SawExternal = false;
  for (const PlannedSite &S : P.Inline.Plan.Sites) {
    if (S.Verdict != CostVerdict::NotInlinable)
      continue;
    std::string Reason = formatDecisionReason(S, P.M);
    if (S.Callee == kNoFunc) {
      EXPECT_NE(Reason.find("indirect call through pointer"),
                std::string::npos)
          << Reason;
      SawPointer = true;
    } else {
      EXPECT_NE(Reason.find("is external"), std::string::npos) << Reason;
      SawExternal = true;
    }
  }
  EXPECT_TRUE(SawPointer);
  EXPECT_TRUE(SawExternal);
}

TEST(DecisionTrace, EveryRefusedSiteHasAConcreteReason) {
  // The acceptance bar: no Rejected/NotExpandable site may render an
  // empty or number-free reason.
  for (const char *Name : {"grep", "compress"}) {
    const BenchmarkSpec *B = findBenchmark(Name);
    Module M = compileOk(B->Source);
    ProfileResult Prof = profileProgram(M, makeBenchmarkInputs(*B, 2));
    ASSERT_TRUE(Prof.allRunsOk());
    InlineResult IR = runInlineExpansion(M, Prof.Data);
    for (const PlannedSite &S : IR.Plan.Sites) {
      if (S.Status != ArcStatus::Rejected &&
          S.Status != ArcStatus::NotExpandable)
        continue;
      std::string Reason = formatDecisionReason(S, M);
      EXPECT_FALSE(Reason.empty()) << Name << " site " << S.SiteId;
      // The weight-, size-, and stack-based verdicts must quote figures.
      switch (S.Verdict) {
      case CostVerdict::LowWeight:
      case CostVerdict::StackHazard:
      case CostVerdict::BudgetExceeded:
        EXPECT_NE(Reason.find_first_of("0123456789"), std::string::npos)
            << Name << " site " << S.SiteId << ": " << Reason;
        break;
      default:
        break;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Renderers
//===----------------------------------------------------------------------===//

TEST(DecisionTrace, JsonEmitsOneObjectPerSite) {
  Planned P = planProgram(test::kCallHeavyProgram, std::string(30, 'x'));
  std::string Json = renderDecisionTraceJson(P.Inline.Plan, P.M, "call-heavy");
  size_t Lines = 0;
  size_t Pos = 0;
  while ((Pos = Json.find('\n', Pos)) != std::string::npos) {
    ++Lines;
    ++Pos;
  }
  EXPECT_EQ(Lines, P.Inline.Plan.Sites.size());
  // Every line is one object with the program tag and a verdict field.
  size_t Start = 0;
  while (Start < Json.size()) {
    size_t End = Json.find('\n', Start);
    std::string Line = Json.substr(Start, End - Start);
    EXPECT_EQ(Line.front(), '{') << Line;
    EXPECT_EQ(Line.back(), '}') << Line;
    EXPECT_NE(Line.find("\"program\":\"call-heavy\""), std::string::npos);
    EXPECT_NE(Line.find("\"verdict\":\""), std::string::npos);
    EXPECT_NE(Line.find("\"reason\":\""), std::string::npos);
    Start = End + 1;
  }
}

TEST(DecisionTrace, PipelineEmitsTraceOnRequest) {
  const BenchmarkSpec *B = findBenchmark("tee");
  PipelineOptions WithTrace;
  WithTrace.EmitDecisionTrace = true;
  PipelineResult R = runPipeline(B->Source, B->Name,
                                 makeBenchmarkInputs(*B, 2), WithTrace);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.DecisionTrace.empty());

  PipelineResult Without = runPipeline(B->Source, B->Name,
                                       makeBenchmarkInputs(*B, 2));
  ASSERT_TRUE(Without.Ok);
  EXPECT_TRUE(Without.DecisionTrace.empty());
}

//===----------------------------------------------------------------------===//
// Golden tables
//===----------------------------------------------------------------------===//

const char *const kGoldenTee = R"GOLD(site         caller         callee   weight          status          verdict                                                                      reason
--------------------------------------------------------------------------------------------------------------------------------------------------------
1          emit_str        putchar     0.00  not-expandable    not-inlinable                                      callee 'putchar' is external (no body)
2             usage       emit_str     0.00        rejected       low-weight                                               weight 0.00 < threshold 10.00
3             usage        putchar     0.00  not-expandable    not-inlinable                                      callee 'putchar' is external (no body)
4        set_option       emit_str     0.00  not-expandable  order-violation  callee 'emit_str' does not precede caller 'set_option' in the linear order
5        set_option        putchar     0.00  not-expandable    not-inlinable                                      callee 'putchar' is external (no body)
6     flush_pending        putchar     0.00  not-expandable    not-inlinable                                      callee 'putchar' is external (no body)
7     flush_pending        putchar     0.00  not-expandable    not-inlinable                                      callee 'putchar' is external (no body)
8              main    input_avail     1.00  not-expandable    not-inlinable                                  callee 'input_avail' is external (no body)
9              main          usage     0.00  not-expandable  order-violation           callee 'usage' does not precede caller 'main' in the linear order
10             main        getchar     1.00  not-expandable    not-inlinable                                      callee 'getchar' is external (no body)
11             main        putchar  2674.50  not-expandable    not-inlinable                                      callee 'putchar' is external (no body)
12             main        putchar  2674.50  not-expandable    not-inlinable                                      callee 'putchar' is external (no body)
13             main        getchar  2674.50  not-expandable    not-inlinable                                      callee 'getchar' is external (no body)
14             main  flush_pending     0.00  not-expandable  order-violation   callee 'flush_pending' does not precede caller 'main' in the linear order
15             main      print_int     1.00  not-expandable    not-inlinable                                    callee 'print_int' is external (no body)
16             main        putchar     1.00  not-expandable    not-inlinable                                      callee 'putchar' is external (no body)
)GOLD";
const char *const kGoldenGrep = R"GOLD(site      caller       callee   weight          status          verdict                                                                    reason
-------------------------------------------------------------------------------------------------------------------------------------------------
1       emit_str      putchar     0.00  not-expandable    not-inlinable                                    callee 'putchar' is external (no body)
2          usage     emit_str     0.00        rejected       low-weight                                             weight 0.00 < threshold 10.00
3          usage      putchar     0.00  not-expandable    not-inlinable                                    callee 'putchar' is external (no body)
4     set_option     emit_str     0.00        rejected       low-weight                                             weight 0.00 < threshold 10.00
5     set_option      putchar     0.00  not-expandable    not-inlinable                                    callee 'putchar' is external (no body)
6     load_input   read_block     1.00  not-expandable    not-inlinable                                 callee 'read_block' is external (no body)
7     load_input   read_block     2.50  not-expandable    not-inlinable                                 callee 'read_block' is external (no body)
8     match_star   match_here     0.00        rejected  recursive-cycle       caller 'match_star' and callee 'match_here' share a recursion cycle
9     match_star       at_end     0.00  not-expandable  order-violation  callee 'at_end' does not precede caller 'match_star' in the linear order
10    match_star   char_match     0.00        rejected       low-weight                                             weight 0.00 < threshold 10.00
11    match_here   match_star     0.00        rejected  recursive-cycle       caller 'match_here' and callee 'match_star' share a recursion cycle
12    match_here       at_end     0.00  not-expandable  order-violation  callee 'at_end' does not precede caller 'match_here' in the linear order
13    match_here   char_match  8138.00        expanded       acceptable  weight 8138.00 >= threshold 10.00; program 393 + callee 12 <= budget 491
14    match_line   match_here     0.00        rejected       low-weight                                             weight 0.00 < threshold 10.00
15    match_line   match_here  6829.50        expanded       acceptable  weight 6829.50 >= threshold 10.00; program 405 + callee 70 <= budget 491
16     emit_line      putchar  2924.00  not-expandable    not-inlinable                                    callee 'putchar' is external (no body)
17     emit_line      putchar    83.00  not-expandable    not-inlinable                                    callee 'putchar' is external (no body)
18          main  input_avail     1.00  not-expandable    not-inlinable                                callee 'input_avail' is external (no body)
19          main        usage     0.00  not-expandable  order-violation         callee 'usage' does not precede caller 'main' in the linear order
20          main   load_input     1.00        rejected       low-weight                                             weight 1.00 < threshold 10.00
21          main    next_line     1.00        rejected       low-weight                                             weight 1.00 < threshold 10.00
22          main   set_option     0.00  not-expandable  order-violation    callee 'set_option' does not precede caller 'main' in the linear order
23          main    next_line     0.00        rejected       low-weight                                             weight 0.00 < threshold 10.00
24          main    next_line   252.00        rejected  budget-exceeded                                      program 475 + callee 61 > budget 491
25          main   match_line   251.00        rejected  budget-exceeded                                     program 475 + callee 108 > budget 491
27          main    print_int     1.00  not-expandable    not-inlinable                                  callee 'print_int' is external (no body)
28          main      putchar     1.00  not-expandable    not-inlinable                                    callee 'putchar' is external (no body)
26          main    emit_line    83.00        rejected  budget-exceeded                                      program 475 + callee 19 > budget 491
)GOLD";

struct GoldenCase {
  const char *Benchmark;
  const char *Expected;
};

// Prints the benchmark name rather than the pointer bytes, so the ctest name
// is the same on every discovery run.
void PrintTo(const GoldenCase &C, std::ostream *OS) {
  *OS << '"' << C.Benchmark << '"';
}

class DecisionTraceGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(DecisionTraceGolden, TableMatchesByteForByte) {
  const GoldenCase &Golden = GetParam();
  const BenchmarkSpec *B = findBenchmark(Golden.Benchmark);
  ASSERT_NE(B, nullptr);
  PipelineOptions Options;
  Options.EmitDecisionTrace = true;
  PipelineResult R = runPipeline(B->Source, B->Name,
                                 makeBenchmarkInputs(*B, 2), Options);
  ASSERT_TRUE(R.Ok) << Golden.Benchmark << ": " << R.Error;
  EXPECT_EQ(R.DecisionTrace, Golden.Expected) << Golden.Benchmark;
}

INSTANTIATE_TEST_SUITE_P(Suite, DecisionTraceGolden,
                         ::testing::Values(GoldenCase{"tee", kGoldenTee},
                                           GoldenCase{"grep", kGoldenGrep}),
                         [](const auto &Info) {
                           return std::string(Info.param.Benchmark);
                         });

} // namespace

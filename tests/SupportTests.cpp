//===- tests/SupportTests.cpp - support library unit tests ------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/FaultInjection.h"
#include "support/Rng.h"
#include "support/SourceManager.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace impact;

namespace {

//===----------------------------------------------------------------------===//
// Casting
//===----------------------------------------------------------------------===//

struct Animal {
  enum class Kind { Dog, Cat } K;
  explicit Animal(Kind K) : K(K) {}
};
struct Dog : Animal {
  Dog() : Animal(Kind::Dog) {}
  static bool classof(const Animal *A) { return A->K == Kind::Dog; }
};
struct Cat : Animal {
  Cat() : Animal(Kind::Cat) {}
  static bool classof(const Animal *A) { return A->K == Kind::Cat; }
};

TEST(Casting, IsaMatchesKind) {
  Dog D;
  Animal *A = &D;
  EXPECT_TRUE(isa<Dog>(A));
  EXPECT_FALSE(isa<Cat>(A));
}

TEST(Casting, CastReturnsTypedPointer) {
  Dog D;
  Animal *A = &D;
  EXPECT_EQ(cast<Dog>(A), &D);
}

TEST(Casting, DynCastReturnsNullOnMismatch) {
  Dog D;
  Animal *A = &D;
  EXPECT_EQ(dyn_cast<Cat>(A), nullptr);
  EXPECT_EQ(dyn_cast<Dog>(A), &D);
}

TEST(Casting, DynCastIfPresentHandlesNull) {
  Animal *A = nullptr;
  EXPECT_EQ(dyn_cast_if_present<Dog>(A), nullptr);
}

TEST(Casting, ConstOverloads) {
  Dog D;
  const Animal *A = &D;
  EXPECT_TRUE(isa<Dog>(A));
  EXPECT_EQ(cast<Dog>(A), &D);
  EXPECT_EQ(dyn_cast<Cat>(A), nullptr);
}

//===----------------------------------------------------------------------===//
// SourceManager
//===----------------------------------------------------------------------===//

TEST(SourceManager, FirstLineFirstColumn) {
  SourceManager SM("buf", "hello\nworld\n");
  LineColumn LC = SM.getLineColumn(SourceLoc(0));
  EXPECT_EQ(LC.Line, 1u);
  EXPECT_EQ(LC.Column, 1u);
}

TEST(SourceManager, SecondLine) {
  SourceManager SM("buf", "hello\nworld\n");
  LineColumn LC = SM.getLineColumn(SourceLoc(6));
  EXPECT_EQ(LC.Line, 2u);
  EXPECT_EQ(LC.Column, 1u);
}

TEST(SourceManager, MidLineColumn) {
  SourceManager SM("buf", "hello\nworld\n");
  LineColumn LC = SM.getLineColumn(SourceLoc(8));
  EXPECT_EQ(LC.Line, 2u);
  EXPECT_EQ(LC.Column, 3u);
}

TEST(SourceManager, InvalidLocationIsLineZero) {
  SourceManager SM("buf", "text");
  EXPECT_EQ(SM.getLineColumn(SourceLoc()).Line, 0u);
}

TEST(SourceManager, LineTextWithoutNewline) {
  SourceManager SM("buf", "alpha\nbeta\ngamma");
  EXPECT_EQ(SM.getLineText(SourceLoc(6)), "beta");
  EXPECT_EQ(SM.getLineText(SourceLoc(11)), "gamma");
}

TEST(SourceManager, EmptyBuffer) {
  SourceManager SM("buf", "");
  EXPECT_EQ(SM.getLineColumn(SourceLoc(0)).Line, 1u);
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(Diagnostics, CountsErrorsOnly) {
  DiagnosticEngine D;
  D.warning(SourceLoc(0), "w");
  D.note(SourceLoc(0), "n");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc(0), "e");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.getNumErrors(), 1u);
  EXPECT_EQ(D.getDiagnostics().size(), 3u);
}

TEST(Diagnostics, RenderIncludesLocationAndSeverity) {
  SourceManager SM("f.mc", "ab\ncd\n");
  DiagnosticEngine D;
  D.error(SourceLoc(3), "bad thing");
  std::string Text = D.render(SM);
  EXPECT_NE(Text.find("f.mc:2:1: error: bad thing"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtils, SplitKeepsEmptyFields) {
  auto Fields = splitString("a,,b", ',');
  ASSERT_EQ(Fields.size(), 3u);
  EXPECT_EQ(Fields[0], "a");
  EXPECT_EQ(Fields[1], "");
  EXPECT_EQ(Fields[2], "b");
}

TEST(StringUtils, SplitNoSeparator) {
  auto Fields = splitString("abc", ',');
  ASSERT_EQ(Fields.size(), 1u);
  EXPECT_EQ(Fields[0], "abc");
}

TEST(StringUtils, TrimBothEnds) {
  EXPECT_EQ(trimString("  x y \t\n"), "x y");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString("   "), "");
}

TEST(StringUtils, StartsWith) {
  EXPECT_TRUE(startsWith("#define X", "#define "));
  EXPECT_FALSE(startsWith("#def", "#define "));
}

TEST(StringUtils, FormatDouble) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(-0.5, 1), "-0.5");
}

TEST(StringUtils, FormatDoubleNonFinite) {
  // snprintf spells these differently across platforms ("inf" vs "INF");
  // the formatter pins one spelling so tables and goldens are portable.
  double Inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(formatDouble(Inf, 2), "inf");
  EXPECT_EQ(formatDouble(-Inf, 2), "-inf");
  EXPECT_EQ(formatDouble(std::nan(""), 2), "nan");
}

TEST(StringUtils, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcde", 4), "abcde");
}

TEST(StringUtils, FormatWithCommas) {
  EXPECT_EQ(formatWithCommas(0), "0");
  EXPECT_EQ(formatWithCommas(999), "999");
  EXPECT_EQ(formatWithCommas(1000), "1,000");
  EXPECT_EQ(formatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(formatWithCommas(-1234567), "-1,234,567");
}

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

TEST(ParallelFor, RunsEveryIndexOnce) {
  for (size_t N : {0u, 1u, 2u, 7u, 1000u}) {
    std::vector<std::atomic<int>> Hits(N);
    parallelFor(N, [&](size_t I) { ++Hits[I]; });
    for (size_t I = 0; I != N; ++I)
      EXPECT_EQ(Hits[I].load(), 1) << "index " << I << " of " << N;
  }
}

TEST(ParallelFor, NestedAndConcurrentCallsFinish) {
  // Loops inside loop bodies and loops from several threads at once: the
  // callers always make progress themselves, so none can wait forever.
  std::atomic<size_t> Total{0};
  std::vector<std::thread> Callers;
  for (int T = 0; T != 4; ++T)
    Callers.emplace_back([&Total] {
      parallelFor(8, [&Total](size_t) {
        parallelFor(16, [&Total](size_t J) { Total += J; });
      });
    });
  for (std::thread &C : Callers)
    C.join();
  EXPECT_EQ(Total.load(), 4u * 8u * (15u * 16u / 2u));
}

TEST(ParallelFor, RethrowsTheBodysException) {
  std::atomic<int> Ran{0};
  EXPECT_THROW(parallelFor(64,
                           [&Ran](size_t I) {
                             ++Ran;
                             if (I == 3)
                               throw std::runtime_error("index 3");
                           }),
               std::runtime_error);
  EXPECT_GE(Ran.load(), 1);
  // The helpers are still usable afterwards.
  std::atomic<int> After{0};
  parallelFor(10, [&After](size_t) { ++After; });
  EXPECT_EQ(After.load(), 10);
}

//===----------------------------------------------------------------------===//
// ThreadPool: job-count parsing
//===----------------------------------------------------------------------===//

TEST(ParseJobCount, AcceptsPlainPositiveInteger) {
  unsigned Out = 0;
  std::string Diag = "stale";
  ASSERT_TRUE(parseJobCount("1", Out, &Diag));
  EXPECT_EQ(Out, 1u);
  EXPECT_TRUE(Diag.empty()) << Diag;
}

TEST(ParseJobCount, TrimsSurroundingWhitespace) {
  // "1" never clamps, so this passes on single-core machines too.
  unsigned Out = 0;
  ASSERT_TRUE(parseJobCount("  1  ", Out));
  EXPECT_EQ(Out, 1u);
}

TEST(ParseJobCount, ClampsZeroAndNegativeToOne) {
  unsigned Out = 0;
  std::string Diag;
  ASSERT_TRUE(parseJobCount("0", Out, &Diag));
  EXPECT_EQ(Out, 1u);
  EXPECT_NE(Diag.find("clamped to 1"), std::string::npos) << Diag;

  Diag.clear();
  ASSERT_TRUE(parseJobCount("-3", Out, &Diag));
  EXPECT_EQ(Out, 1u);
  EXPECT_NE(Diag.find("clamped to 1"), std::string::npos) << Diag;
}

TEST(ParseJobCount, ClampsHugeValuesToHardwareConcurrency) {
  unsigned Out = 0;
  std::string Diag;
  ASSERT_TRUE(parseJobCount("100000", Out, &Diag));
  EXPECT_EQ(Out, ThreadPool::getDefaultThreadCount());
  EXPECT_NE(Diag.find("clamped"), std::string::npos) << Diag;
}

TEST(ParseJobCount, RejectsNonNumericInput) {
  unsigned Out = 77;
  std::string Diag;
  EXPECT_FALSE(parseJobCount("4x", Out, &Diag));
  EXPECT_NE(Diag.find("invalid job count"), std::string::npos) << Diag;
  EXPECT_FALSE(parseJobCount("2 4", Out, &Diag));
  EXPECT_FALSE(parseJobCount("", Out, &Diag));
  EXPECT_FALSE(parseJobCount("jobs", Out, &Diag));
  // Rejection leaves the caller's previous value untouched.
  EXPECT_EQ(Out, 77u);
}

TEST(ParseJobCount, RejectsOverflowingInput) {
  unsigned Out = 0;
  std::string Diag;
  EXPECT_FALSE(parseJobCount("99999999999999999999999999", Out, &Diag));
  EXPECT_NE(Diag.find("invalid job count"), std::string::npos) << Diag;
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(Rng, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I != 10; ++I)
    AnyDifferent |= A.next() != B.next();
  EXPECT_TRUE(AnyDifferent);
}

TEST(Rng, NextBelowInRange) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.nextBelow(13), 13u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(9);
  std::set<int64_t> Seen;
  for (int I = 0; I != 2000; ++I) {
    int64_t V = R.nextInRange(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 5u) << "all five values should eventually appear";
}

TEST(Rng, ChanceExtremes) {
  Rng R(11);
  for (int I = 0; I != 100; ++I) {
    EXPECT_FALSE(R.nextChance(0, 10));
    EXPECT_TRUE(R.nextChance(10, 10));
  }
}

//===----------------------------------------------------------------------===//
// FaultInjection: parseFaultPlan
//===----------------------------------------------------------------------===//

TEST(ParseFaultPlan, ParsesSingleRule) {
  FaultPlan Plan;
  std::string Diag = "stale";
  ASSERT_TRUE(parseFaultPlan("profile:throw@3", Plan, &Diag));
  EXPECT_TRUE(Diag.empty()); // success clears the diagnostic
  ASSERT_EQ(Plan.Rules.size(), 1u);
  EXPECT_TRUE(Plan.Rules[0].Unit.empty());
  EXPECT_EQ(Plan.Rules[0].Site, "profile");
  EXPECT_EQ(Plan.Rules[0].Kind, FaultKind::Throw);
  EXPECT_EQ(Plan.Rules[0].Occurrence, 3u);
  EXPECT_EQ(Plan.Rules[0].MaxAttempts, 0u);
}

TEST(ParseFaultPlan, ParsesUnitScopedTransientRule) {
  FaultPlan Plan;
  ASSERT_TRUE(parseFaultPlan("wc/expand:diag@2x1", Plan));
  ASSERT_EQ(Plan.Rules.size(), 1u);
  EXPECT_EQ(Plan.Rules[0].Unit, "wc");
  EXPECT_EQ(Plan.Rules[0].Site, "expand");
  EXPECT_EQ(Plan.Rules[0].Kind, FaultKind::Diagnostic);
  EXPECT_EQ(Plan.Rules[0].Occurrence, 2u);
  EXPECT_EQ(Plan.Rules[0].MaxAttempts, 1u);
}

TEST(ParseFaultPlan, ParsesMultipleRulesWithWhitespace) {
  FaultPlan Plan;
  ASSERT_TRUE(parseFaultPlan(" pass:oom@1 , profile:steplimit@1 ", Plan));
  ASSERT_EQ(Plan.Rules.size(), 2u);
  EXPECT_EQ(Plan.Rules[0].Kind, FaultKind::Oom);
  EXPECT_EQ(Plan.Rules[1].Kind, FaultKind::StepLimit);
}

TEST(ParseFaultPlan, EmptySpecIsEmptyPlan) {
  FaultPlan Plan;
  ASSERT_TRUE(parseFaultPlan("", Plan));
  EXPECT_TRUE(Plan.empty());
  ASSERT_TRUE(parseFaultPlan("   ", Plan));
  EXPECT_TRUE(Plan.empty());
}

TEST(ParseFaultPlan, ReplacesPriorRules) {
  FaultPlan Plan;
  ASSERT_TRUE(parseFaultPlan("profile:throw@1", Plan));
  ASSERT_TRUE(parseFaultPlan("expand:oom@2", Plan));
  ASSERT_EQ(Plan.Rules.size(), 1u);
  EXPECT_EQ(Plan.Rules[0].Site, "expand");
}

TEST(ParseFaultPlan, RejectsMalformedSpecs) {
  const char *Bad[] = {
      "profile",               // no kind
      "profile:throw",         // no occurrence
      "profile:throw@",        // empty occurrence
      "profile:throw@0",       // occurrence must be positive
      "profile:throw@x",       // garbage occurrence
      "profile:throw@1x",      // empty attempts
      "profile:throw@1x0",     // attempts must be positive
      "profile:throw@2junk",   // trailing garbage
      "bogus:throw@1",         // unknown site
      "profile:explode@1",     // unknown kind
      "pass:steplimit@1",      // steplimit outside profile/reprofile
      "a/b/pass:throw@1",      // unknown site "b/pass"
      "profile:throw@1,,pass:throw@1", // empty rule
      ",",                     // only empty rules
  };
  for (const char *Spec : Bad) {
    FaultPlan Plan;
    std::string Diag;
    EXPECT_FALSE(parseFaultPlan(Spec, Plan, &Diag)) << Spec;
    EXPECT_FALSE(Diag.empty()) << Spec;
  }
}

TEST(ParseFaultPlan, DiagnosticNamesOffendingRule) {
  FaultPlan Plan;
  std::string Diag;
  EXPECT_FALSE(parseFaultPlan("profile:throw@1,bogus:oom@1", Plan, &Diag));
  EXPECT_NE(Diag.find("bogus"), std::string::npos);
}

TEST(ParseFaultPlan, RenderRoundTrips) {
  const char *Specs[] = {
      "profile:throw@3",
      "wc/expand:diag@2x1",
      "pass:oom@1,reprofile:steplimit@1",
  };
  for (const char *Spec : Specs) {
    FaultPlan Plan;
    ASSERT_TRUE(parseFaultPlan(Spec, Plan)) << Spec;
    std::string Rendered = renderFaultPlan(Plan);
    EXPECT_EQ(Rendered, Spec);
    FaultPlan Again;
    ASSERT_TRUE(parseFaultPlan(Rendered, Again)) << Rendered;
    EXPECT_EQ(renderFaultPlan(Again), Rendered);
  }
}

TEST(ParseFaultPlan, KnownSitesListedInDiagnostic) {
  FaultPlan Plan;
  std::string Diag;
  EXPECT_FALSE(parseFaultPlan("nowhere:throw@1", Plan, &Diag));
  for (const std::string &Site : getKnownFaultSites())
    EXPECT_NE(Diag.find(Site), std::string::npos) << Site;
}

//===----------------------------------------------------------------------===//
// FaultInjection: FaultSession
//===----------------------------------------------------------------------===//

TEST(FaultSessionTest, InertWithoutPlan) {
  FaultSession Default;
  EXPECT_FALSE(Default.isActive());
  EXPECT_EQ(Default.reach("profile"), std::nullopt);
  EXPECT_TRUE(Default.getSiteHits().empty());

  FaultSession NullPlan(nullptr, "wc");
  EXPECT_FALSE(NullPlan.isActive());
  EXPECT_EQ(NullPlan.reach("profile"), std::nullopt);
}

TEST(FaultSessionTest, EmptyPlanCountsArrivals) {
  FaultPlan Empty;
  FaultSession S(&Empty, "wc");
  EXPECT_TRUE(S.isActive());
  EXPECT_EQ(S.reach("pass"), std::nullopt);
  EXPECT_EQ(S.reach("pass"), std::nullopt);
  EXPECT_EQ(S.reach("profile"), std::nullopt);
  auto Hits = S.getSiteHits();
  ASSERT_EQ(Hits.size(), 2u);
  EXPECT_EQ(Hits[0].first, "pass");
  EXPECT_EQ(Hits[0].second, 2u);
  EXPECT_EQ(Hits[1].first, "profile");
  EXPECT_EQ(Hits[1].second, 1u);
}

TEST(FaultSessionTest, FiresAtExactOccurrence) {
  FaultPlan Plan;
  ASSERT_TRUE(parseFaultPlan("pass:diag@3", Plan));
  FaultSession S(&Plan, "wc");
  EXPECT_EQ(S.reach("pass"), std::nullopt);
  EXPECT_EQ(S.reach("pass"), std::nullopt);
  EXPECT_EQ(S.reach("pass"), FaultKind::Diagnostic);
  EXPECT_EQ(S.reach("pass"), std::nullopt); // only the 3rd arrival
}

TEST(FaultSessionTest, ThrowAndOomKindsThrow) {
  FaultPlan Plan;
  ASSERT_TRUE(parseFaultPlan("pass:throw@1,profile:oom@1", Plan));
  FaultSession S(&Plan, "wc");
  EXPECT_THROW((void)S.reach("pass"), FaultInjectedError);
  EXPECT_THROW((void)S.reach("profile"), std::bad_alloc);
}

TEST(FaultSessionTest, UnitScopeGates) {
  FaultPlan Plan;
  ASSERT_TRUE(parseFaultPlan("wc/pass:throw@1", Plan));
  FaultSession Other(&Plan, "grep");
  EXPECT_EQ(Other.reach("pass"), std::nullopt);
  FaultSession Match(&Plan, "wc");
  EXPECT_THROW((void)Match.reach("pass"), FaultInjectedError);
}

TEST(FaultSessionTest, TransientRuleStopsAfterMaxAttempts) {
  FaultPlan Plan;
  ASSERT_TRUE(parseFaultPlan("pass:diag@1x2", Plan));
  FaultSession A1(&Plan, "wc", /*Attempt=*/1);
  EXPECT_EQ(A1.reach("pass"), FaultKind::Diagnostic);
  FaultSession A2(&Plan, "wc", /*Attempt=*/2);
  EXPECT_EQ(A2.reach("pass"), FaultKind::Diagnostic);
  FaultSession A3(&Plan, "wc", /*Attempt=*/3);
  EXPECT_EQ(A3.reach("pass"), std::nullopt);
}

TEST(FaultSessionTest, FormatFaultKindNames) {
  EXPECT_STREQ(formatFaultKind(FaultKind::Throw), "throw");
  EXPECT_STREQ(formatFaultKind(FaultKind::Diagnostic), "diag");
  EXPECT_STREQ(formatFaultKind(FaultKind::Oom), "oom");
  EXPECT_STREQ(formatFaultKind(FaultKind::StepLimit), "steplimit");
}

} // namespace

//===- tests/RangePropertyTests.cpp - static facts vs dynamic truth ---------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `ranges` tier: every fact the interprocedural range/purity analysis
/// emits is asserted against real executions. The 12-benchmark suite and a
/// randomized MiniC corpus run through BOTH engines (walker and VM) with
/// a RangeFactChecker installed; any dynamic violation of a
/// statically-proven fact is a hard failure. The same programs re-run
/// after inline expansion plus the post-inline cleanup, with the facts
/// recomputed on the transformed module. The analyzer's range-backed
/// rules must be engine- and thread-count-invariant and produce zero error
/// findings on legal programs.
///
/// Run with `ctest -L ranges`. Corpus width: IMPACT_FUZZ_SEEDS (>= 64).
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "analysis/RangeAnalysis.h"
#include "core/InlinePass.h"
#include "driver/BatchPipeline.h"
#include "ir/IrPrinter.h"
#include "ir/IrVerifier.h"
#include "opt/PassManager.h"
#include "suite/Suite.h"
#include "vm/Bytecode.h"
#include "vm/Vm.h"

#include "RandomProgram.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace impact;

namespace {

/// The classic quartet plus the post-inline cleanup pass.
OptOptions cleanupPasses() {
  OptOptions Opts;
  Opts.LoopInvariantCodeMotion = true;
  return Opts;
}

/// Computes \p M's facts, installs a checker, and runs every input
/// through the walker and the VM. Zero violations required; at least one
/// check must actually fire (the tier must never silently degrade into
/// checking nothing).
void expectFactsHold(const Module &M, const std::vector<RunInput> &Inputs,
                     const std::string &Tag) {
  ModuleRangeFacts Facts = computeModuleRangeFacts(M);
  RangeFactChecker Check(M, Facts);
  VmProgram P = compileToBytecode(M);
  for (const RunInput &In : Inputs) {
    RunOptions Opts;
    Opts.Input = In.Input;
    Opts.Input2 = In.Input2;
    Opts.FactCheck = &Check;
    (void)runProgram(M, Opts);
    (void)runProgramVm(P, Opts);
  }
  EXPECT_GT(Check.getChecksPerformed(), 0u) << Tag;
  if (!Check.ok())
    for (const std::string &V : Check.getViolations())
      ADD_FAILURE() << Tag << ": " << V;
}

/// Inline-expands \p M (profile-driven) and runs the post-inline cleanup
/// over every expanded caller.
void inlineAndOptimize(Module &M, const std::vector<RunInput> &Inputs) {
  ProfileResult PR = profileProgram(M, Inputs);
  ASSERT_TRUE(PR.allRunsOk());
  InlineOptions Options;
  Options.PostInlineOptimize = true;
  Options.PostOpt = cleanupPasses();
  runInlineExpansion(M, PR.Data, Options);
  ASSERT_EQ(verifyModuleText(M), "");
}

//===----------------------------------------------------------------------===//
// The 12-benchmark suite
//===----------------------------------------------------------------------===//

TEST(RangeSuite, FactsHoldDynamically) {
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    SCOPED_TRACE(Spec.Name);
    Module M = test::compileOk(Spec.Source);
    std::vector<RunInput> Inputs = makeBenchmarkInputs(Spec, 2);
    ASSERT_FALSE(Inputs.empty());
    expectFactsHold(M, Inputs, Spec.Name);
  }
}

TEST(RangeSuite, FactsHoldAfterInlineAndOptimize) {
  // The facts are recomputed on the transformed module, so this checks
  // that the analysis stays sound on the shapes inline expansion and the
  // cleanup passes produce.
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    SCOPED_TRACE(Spec.Name);
    Module M = test::compileOk(Spec.Source);
    std::vector<RunInput> Inputs = makeBenchmarkInputs(Spec, 2);
    inlineAndOptimize(M, Inputs);
    if (::testing::Test::HasFailure())
      return;
    expectFactsHold(M, Inputs, Spec.Name + " post-inline");
  }
}

//===----------------------------------------------------------------------===//
// Randomized corpus
//===----------------------------------------------------------------------===//

const char *const kCorpusInputs[] = {"", "a", "hello world",
                                     "0123456789abcdef"};

TEST(RangeCorpus, FactsHoldDynamically) {
  unsigned Seeds = test::getFuzzSeedCount(/*Floor=*/64);
  for (uint64_t Seed = 0; Seed != Seeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Module M = test::compileOk(test::generateRandomProgram(Seed));
    if (::testing::Test::HasFailure())
      return; // generator contract broken; no point running the corpus
    std::vector<RunInput> Inputs;
    for (const char *In : kCorpusInputs)
      Inputs.push_back(RunInput{In, ""});
    expectFactsHold(M, Inputs, "seed " + std::to_string(Seed));
  }
}

TEST(RangeCorpus, FactsHoldAfterInlineAndOptimize) {
  unsigned Seeds = test::getFuzzSeedCount(/*Floor=*/64);
  for (uint64_t Seed = 0; Seed != Seeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Module M = test::compileOk(test::generateRandomProgram(Seed));
    if (::testing::Test::HasFailure())
      return;
    std::vector<RunInput> Inputs;
    for (const char *In : kCorpusInputs)
      Inputs.push_back(RunInput{In, ""});
    ProfileResult PR = profileProgram(M, Inputs);
    if (!PR.allRunsOk())
      continue; // corpus programs may trap by design; facts need clean runs
    InlineOptions Options;
    Options.PostInlineOptimize = true;
    Options.PostOpt = cleanupPasses();
    runInlineExpansion(M, PR.Data, Options);
    ASSERT_EQ(verifyModuleText(M), "") << "seed " << Seed;
    expectFactsHold(M, Inputs, "seed " + std::to_string(Seed) +
                                   " post-inline");
  }
}

//===----------------------------------------------------------------------===//
// Analyzer range rules: deterministic, engine-invariant, silent on legal
// programs
//===----------------------------------------------------------------------===//

std::vector<BatchJob> makeAnalyzedSuiteJobs() {
  std::vector<BatchJob> Jobs;
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    BatchJob Job;
    Job.Name = Spec.Name;
    Job.Source = Spec.Source;
    Job.Inputs = makeBenchmarkInputs(Spec, 2);
    Job.Options.Analyze = true; // default AnalysisOptions: every rule on
    Job.Options.Inline.PostInlineOptimize = true;
    Job.Options.Inline.PostOpt = cleanupPasses();
    Jobs.push_back(std::move(Job));
  }
  return Jobs;
}

TEST(RangeBatch, FindingsIdenticalAcrossThreadCountsAndErrorFree) {
  BatchOptions Serial, Wide;
  Serial.Jobs = 1;
  Wide.Jobs = 4;
  BatchResult A = runBatchPipeline(makeAnalyzedSuiteJobs(), Serial);
  BatchResult B = runBatchPipeline(makeAnalyzedSuiteJobs(), Wide);
  ASSERT_TRUE(A.allOk());
  ASSERT_TRUE(B.allOk());
  ASSERT_EQ(A.Results.size(), B.Results.size());
  for (size_t I = 0; I != A.Results.size(); ++I) {
    const std::string &Name = getBenchmarkSuite()[I].Name;
    EXPECT_TRUE(A.Results[I].Analysis == B.Results[I].Analysis) << Name;
    for (const Finding &F : A.Results[I].Analysis.Findings)
      EXPECT_NE(F.Sev, Severity::Error) << Name << ": " << F.render();
  }
}

TEST(RangeCorpus, AnalyzerErrorFreeAndDeterministicOnRandomPrograms) {
  // guaranteed-trap is an error-severity rule; it must never fire on the
  // generator's legal programs, and re-analysis must be bit-identical.
  unsigned Seeds = test::getFuzzSeedCount(/*Floor=*/64);
  AnalysisOptions Options; // defaults: every rule enabled
  for (uint64_t Seed = 0; Seed != Seeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Module M = test::compileOk(test::generateRandomProgram(Seed));
    if (::testing::Test::HasFailure())
      return;
    AnalysisReport First = analyzeModule(M, Options);
    AnalysisReport Second = analyzeModule(M, Options);
    EXPECT_TRUE(First == Second);
    for (const Finding &F : First.Findings)
      EXPECT_NE(F.Sev, Severity::Error) << F.render();
  }
}

//===----------------------------------------------------------------------===//
// Fact fingerprint: the facts themselves, bit for bit
//===----------------------------------------------------------------------===//

/// Appends every ModuleRangeFacts field, then each defined function's
/// range-reachability bits and the entry state of every reached block,
/// then the rendered range findings. Intervals go through renderInterval,
/// so every bottom prints alike.
void appendFactFingerprint(const Module &M, std::string &Out) {
  ModuleRangeFacts Facts = computeModuleRangeFacts(M);
  Out += "globals " + std::to_string(Facts.GlobalLo) + " " +
         std::to_string(Facts.GlobalHi) + " callptr " +
         std::to_string(Facts.HasCallPtr) + "\n";
  for (size_t FI = 0; FI != Facts.Funcs.size(); ++FI) {
    const FunctionRangeSummary &S = Facts.Funcs[FI];
    Out += "fn " + std::to_string(FI) + " summary " +
           std::to_string(S.HasSummary) + " ret " + renderInterval(S.Ret) +
           " rgwt " + std::to_string(S.ReadsGlobals) +
           std::to_string(S.WritesGlobals) + std::to_string(S.MayTrap) +
           " params " + std::to_string(S.Params.size());
    for (const Interval &P : S.Params)
      Out += " " + renderInterval(P);
    Out += "\n";
  }
  for (size_t Site = 0; Site != Facts.SiteArgs.size(); ++Site) {
    Out += "site " + std::to_string(Site) + " " +
           std::to_string(Facts.SiteHasFact[Site]);
    for (const Interval &A : Facts.SiteArgs[Site])
      Out += " " + renderInterval(A);
    Out += "\n";
  }
  for (const Function &F : M.Funcs) {
    if (F.IsExternal || F.Eliminated || F.Blocks.empty())
      continue;
    Cfg G(F);
    std::vector<char> Headers = computeWideningHeaders(F);
    RangeAnalysis RA(F, G, Headers, M, Facts);
    for (size_t B = 0; B != F.Blocks.size(); ++B) {
      BlockId Id = static_cast<BlockId>(B);
      Out += F.Name + " bb" + std::to_string(B);
      if (!RA.isReachable(Id)) {
        Out += " dead\n";
        continue;
      }
      for (const Interval &I : RA.blockIn(Id))
        Out += " " + renderInterval(I);
      Out += "\n";
    }
  }
  AnalysisOptions Rules;
  std::string Error;
  EXPECT_TRUE(
      parseAnalysisRules("guaranteed-trap,range-contradiction", Rules, &Error))
      << Error;
  Out += analyzeModule(M, Rules).renderText();
}

TEST(RangeSuite, FactsBitIdenticalToSeed) {
  // Pinned digests of every fact the range layer produces, one per
  // corpus. A change to the analysis's cost (solve count, buffers, who
  // consumes which solve) must leave all of them unchanged; a change to
  // what it proves must re-pin them deliberately. The random-program
  // seeds are a fixed list, independent of IMPACT_FUZZ_SEEDS.
  OptOptions All;
  std::string Error;
  ASSERT_TRUE(parseOptPasses("all", All, &Error)) << Error;

  std::string PreOpt, Server, Corpus;
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    Module M = test::compileOk(Spec.Source);
    runOptimizationPipeline(M, All);
    PreOpt += "== " + Spec.Name + "\n";
    appendFactFingerprint(M, PreOpt);

    // The compile server's configuration: VM, every pass before and after
    // inlining, analyzer on.
    PipelineOptions P;
    P.Engine = ExecEngine::Vm;
    P.PreOpt = All;
    P.Inline.PostInlineOptimize = true;
    P.Inline.PostOpt = All;
    P.Analyze = true;
    PipelineResult R = runPipeline(Spec.Source, Spec.Name,
                                   makeBenchmarkInputs(Spec, 1), P);
    ASSERT_TRUE(R.Ok) << Spec.Name << ": " << R.Error;
    Server += "== " + Spec.Name + "\n";
    appendFactFingerprint(R.FinalModule, Server);
  }
  for (uint64_t Seed = 0; Seed != 32; ++Seed) {
    Module M = test::compileOk(test::generateRandomProgram(Seed));
    Corpus += "== seed " + std::to_string(Seed) + "\n";
    appendFactFingerprint(M, Corpus);
  }
  EXPECT_EQ(test::renderHash(hash128(PreOpt)),
            "fe7d871c82eb1fe984fb6eb0d859dbf9");
  EXPECT_EQ(test::renderHash(hash128(Server)),
            "692ba0756995d5eddcd76f1ab85abd60");
  EXPECT_EQ(test::renderHash(hash128(Corpus)),
            "28779cf2bf9108ada471327bde142944");
}

//===----------------------------------------------------------------------===//
// Summaries by call-graph SCC shape
//===----------------------------------------------------------------------===//

const FunctionRangeSummary &summaryOf(const Module &M,
                                      const ModuleRangeFacts &Facts,
                                      std::string_view Name) {
  for (const Function &F : M.Funcs)
    if (F.Name == Name)
      return Facts.Funcs[static_cast<size_t>(F.Id)];
  ADD_FAILURE() << "no function '" << Name << "'";
  return Facts.Funcs.front();
}

/// The argument facts of every direct call \p Caller makes to \p Callee,
/// in program order, one "[a,b] [c,d]" string per site.
std::vector<std::string> siteArgsOf(const Module &M,
                                    const ModuleRangeFacts &Facts,
                                    std::string_view Caller,
                                    std::string_view Callee) {
  std::vector<std::string> Out;
  for (const Function &F : M.Funcs) {
    if (F.Name != Caller)
      continue;
    for (const BasicBlock &B : F.Blocks)
      for (const Instr &I : B.Instrs) {
        if (I.Op != Opcode::Call ||
            M.Funcs[static_cast<size_t>(I.Callee)].Name != Callee)
          continue;
        EXPECT_TRUE(Facts.SiteHasFact[I.SiteId]) << "site " << I.SiteId;
        std::string Args;
        for (const Interval &A : Facts.SiteArgs[I.SiteId])
          Args += (Args.empty() ? "" : " ") + renderInterval(A);
        Out.push_back(Args);
      }
  }
  return Out;
}

/// "rwt": ReadsGlobals, WritesGlobals, MayTrap.
std::string purityOf(const FunctionRangeSummary &S) {
  return std::string(S.ReadsGlobals ? "r" : "-") +
         (S.WritesGlobals ? "w" : "-") + (S.MayTrap ? "t" : "-");
}

std::string paramsOf(const FunctionRangeSummary &S) {
  std::string Out;
  for (const Interval &P : S.Params)
    Out += (Out.empty() ? "" : " ") + renderInterval(P);
  return Out;
}

using Sites = std::vector<std::string>;

TEST(RangeScc, NonRecursiveLeafIsExact) {
  Module M = test::compileOk(R"MC(
int leaf(int x) { return x + 1; }
int main() { int a; a = leaf(3); return a + leaf(5); }
)MC");
  ModuleRangeFacts Facts = computeModuleRangeFacts(M);
  const FunctionRangeSummary &Leaf = summaryOf(M, Facts, "leaf");
  EXPECT_TRUE(Leaf.HasSummary);
  EXPECT_EQ(paramsOf(Leaf), "[3,5]");
  EXPECT_EQ(renderInterval(Leaf.Ret), "[4,6]");
  EXPECT_EQ(purityOf(Leaf), "---");
  const FunctionRangeSummary &Main = summaryOf(M, Facts, "main");
  EXPECT_EQ(renderInterval(Main.Ret), "[8,12]");
  EXPECT_EQ(purityOf(Main), "--t"); // any call may overflow the stack
  EXPECT_EQ(siteArgsOf(M, Facts, "main", "leaf"), (Sites{"[3,3]", "[5,5]"}));
}

TEST(RangeScc, SelfRecursiveFunction) {
  Module M = test::compileOk(R"MC(
int down(int n) { if (n <= 0) { return 0; } return down(n - 1); }
int main() { return down(4); }
)MC");
  ModuleRangeFacts Facts = computeModuleRangeFacts(M);
  const FunctionRangeSummary &Down = summaryOf(M, Facts, "down");
  EXPECT_EQ(paramsOf(Down), "[-inf,4]"); // phase B widens the formal
  EXPECT_EQ(renderInterval(Down.Ret), "[0,0]");
  EXPECT_EQ(purityOf(Down), "--t");
  EXPECT_EQ(renderInterval(summaryOf(M, Facts, "main").Ret), "[0,0]");
  EXPECT_EQ(siteArgsOf(M, Facts, "main", "down"), (Sites{"[4,4]"}));
  EXPECT_EQ(siteArgsOf(M, Facts, "down", "down"), (Sites{"[0,3]"}));
}

TEST(RangeScc, TwoMemberMutualRecursion) {
  Module M = test::compileOk(R"MC(
int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }
int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }
int main() { return even(6); }
)MC");
  ModuleRangeFacts Facts = computeModuleRangeFacts(M);
  for (const char *Name : {"even", "odd"}) {
    SCOPED_TRACE(Name);
    const FunctionRangeSummary &S = summaryOf(M, Facts, Name);
    EXPECT_EQ(paramsOf(S), "[-inf,+inf]");
    EXPECT_EQ(renderInterval(S.Ret), "[0,1]");
    EXPECT_EQ(purityOf(S), "--t");
  }
  EXPECT_EQ(renderInterval(summaryOf(M, Facts, "main").Ret), "[0,1]");
  EXPECT_EQ(siteArgsOf(M, Facts, "main", "even"), (Sites{"[6,6]"}));
  EXPECT_EQ(siteArgsOf(M, Facts, "even", "odd"), (Sites{"[-inf,+inf]"}));
  EXPECT_EQ(siteArgsOf(M, Facts, "odd", "even"), (Sites{"[-inf,+inf]"}));
}

TEST(RangeScc, RoundCapGoesConservative) {
  // A ten-member cycle where only f9 writes a global: the write bit
  // crawls back one member per round, so the component is still changing
  // when the 8-round cap hits and every member collapses to the
  // conservative summary (even ReadsGlobals, which no member does).
  // Formals and site arguments come from phase B and survive the cap.
  std::string Source = "int g;\n";
  for (int I = 0; I != 10; ++I)
    Source += "int f" + std::to_string(I) + "(int n) { " +
              (I == 9 ? "g = n; " : "") +
              "if (n <= 0) { return 0; } return f" +
              std::to_string((I + 1) % 10) + "(n - 1); }\n";
  Source += "int main() { return f0(20); }\n";
  Module M = test::compileOk(Source);
  ModuleRangeFacts Facts = computeModuleRangeFacts(M);
  for (int I = 0; I != 10; ++I) {
    std::string Name = "f" + std::to_string(I);
    SCOPED_TRACE(Name);
    const FunctionRangeSummary &S = summaryOf(M, Facts, Name);
    EXPECT_TRUE(S.Ret.isTop());
    EXPECT_EQ(purityOf(S), "rwt");
    std::string Formal = I == 0 ? "[0,20]" : "[0," + std::to_string(20 - I) + "]";
    EXPECT_EQ(paramsOf(S), Formal);
    EXPECT_EQ(siteArgsOf(M, Facts, Name, "f" + std::to_string((I + 1) % 10)),
              (Sites{"[0," + std::to_string(19 - I) + "]"}));
  }
  EXPECT_EQ(purityOf(summaryOf(M, Facts, "main")), "rwt");
  EXPECT_EQ(siteArgsOf(M, Facts, "main", "f0"), (Sites{"[20,20]"}));
}

//===----------------------------------------------------------------------===//
// Unreachable-block state
//===----------------------------------------------------------------------===//

/// Asserts that \p Dead is CFG-reachable but range-unreachable in main and
/// that its entry state is empty, like every other unreached block's.
void expectEmptyStateWhenUnreached(const char *Source, BlockId Dead) {
  Module M = test::compileOk(Source);
  ModuleRangeFacts Facts = computeModuleRangeFacts(M);
  const Function &Main = M.Funcs[static_cast<size_t>(M.MainId)];
  Cfg G(Main);
  std::vector<char> Headers = computeWideningHeaders(Main);
  RangeAnalysis RA(Main, G, Headers, M, Facts);
  ASSERT_LT(static_cast<size_t>(Dead), Main.Blocks.size());
  EXPECT_TRUE(G.isReachable(Dead));
  EXPECT_FALSE(RA.isReachable(Dead));
  for (size_t B = 0; B != Main.Blocks.size(); ++B) {
    BlockId Id = static_cast<BlockId>(B);
    if (RA.isReachable(Id))
      EXPECT_EQ(RA.blockIn(Id).size(), Main.NumRegs) << "bb" << B;
    else
      EXPECT_TRUE(RA.blockIn(Id).empty()) << "bb" << B;
  }
}

TEST(RangeBlockIn, BlockTheSolverNeverReachesHasEmptyState) {
  // x = 3 makes the x > 5 edge infeasible the first time it is tried.
  expectEmptyStateWhenUnreached(R"MC(
int main() {
  int x;
  x = 3;
  if (x > 5) {
    return 1;
  }
  return 0;
}
)MC",
                                1);
}

TEST(RangeBlockIn, BlockNarrowingProvesDeadHasEmptyState) {
  // Widening lets i reach [10,+inf] after the loop, so the solver reaches
  // the i > 10 block; narrowing tightens i to [10,10] and unreaches it.
  expectEmptyStateWhenUnreached(R"MC(
int main() {
  int i;
  i = 0;
  while (i < 10) {
    i = i + 1;
  }
  if (i > 10) {
    return 1;
  }
  return 0;
}
)MC",
                                7);
}

//===----------------------------------------------------------------------===//
// Interval lattice units
//===----------------------------------------------------------------------===//

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

TEST(Interval, LatticeBasics) {
  EXPECT_TRUE(Interval::bottom().isBottom());
  EXPECT_TRUE(Interval::top().isTop());
  EXPECT_TRUE(Interval::constant(7).isConstant());
  EXPECT_FALSE(Interval::bottom().isConstant());
  EXPECT_TRUE(Interval::make(3, 1).isBottom()); // canonicalized
  EXPECT_TRUE(Interval::make(-2, 5).contains(0));
  EXPECT_TRUE(Interval::make(0, 9).isNonNegative());
  EXPECT_FALSE(Interval::bottom().isNonNegative());
}

TEST(Interval, JoinMeetWiden) {
  Interval A = Interval::make(1, 5), B = Interval::make(3, 9);
  EXPECT_EQ(join(A, B), Interval::make(1, 9));
  EXPECT_EQ(meet(A, B), Interval::make(3, 5));
  EXPECT_EQ(join(Interval::bottom(), A), A);
  EXPECT_TRUE(meet(Interval::make(1, 2), Interval::make(5, 6)).isBottom());
  // Widening: a grown bound jumps to infinity, a stable one stays exact.
  EXPECT_EQ(widen(Interval::make(0, 5), Interval::make(0, 6)),
            Interval::make(0, kMax));
  EXPECT_EQ(widen(Interval::make(0, 5), Interval::make(-1, 5)),
            Interval::make(kMin, 5));
  EXPECT_EQ(widen(Interval::make(0, 5), Interval::make(0, 5)),
            Interval::make(0, 5));
}

TEST(Interval, ArithmeticOverflowGoesToTop) {
  EXPECT_EQ(rangeAdd(Interval::constant(2), Interval::constant(3)),
            Interval::constant(5));
  EXPECT_TRUE(rangeAdd(Interval::constant(kMax), Interval::constant(1))
                  .isTop());
  EXPECT_TRUE(rangeMul(Interval::constant(kMax), Interval::constant(2))
                  .isTop());
  EXPECT_EQ(rangeSub(Interval::make(1, 4), Interval::make(1, 2)),
            Interval::make(-1, 3));
  EXPECT_TRUE(rangeNeg(Interval::constant(kMin)).isTop());
}

TEST(Interval, DivRemTrapHazardsGoToTop) {
  // A singleton div/rem result implies the operation provably cannot
  // trap — any fold of a singleton result to a constant leans on
  // exactly this property.
  EXPECT_EQ(rangeDiv(Interval::constant(42), Interval::constant(7)),
            Interval::constant(6));
  EXPECT_TRUE(rangeDiv(Interval::constant(42), Interval::make(0, 7))
                  .isTop());
  EXPECT_TRUE(rangeDiv(Interval::constant(kMin), Interval::constant(-1))
                  .isTop());
  EXPECT_EQ(rangeRem(Interval::constant(42), Interval::constant(5)),
            Interval::constant(2));
  EXPECT_TRUE(rangeRem(Interval::constant(1), Interval::make(-1, 1))
                  .isTop());
  EXPECT_TRUE(divMayTrap(Interval::top(), Interval::top()));
  EXPECT_TRUE(divMayTrap(Interval::constant(1), Interval::make(-1, 1)));
  EXPECT_FALSE(divMayTrap(Interval::make(0, 100), Interval::make(1, 8)));
  EXPECT_TRUE(divMayTrap(Interval::constant(kMin), Interval::constant(-1)));
  // Bottom operands mean the instruction never executes.
  EXPECT_FALSE(divMayTrap(Interval::bottom(), Interval::constant(0)));
}

TEST(Interval, ComparisonsProveOnlyWhenDisjoint) {
  Interval Lo = Interval::make(0, 4), Hi = Interval::make(5, 9);
  EXPECT_EQ(rangeCmp(Opcode::CmpLt, Lo, Hi), Interval::constant(1));
  EXPECT_EQ(rangeCmp(Opcode::CmpLt, Hi, Lo), Interval::constant(0));
  EXPECT_EQ(rangeCmp(Opcode::CmpLt, Lo, Lo), Interval::make(0, 1));
  EXPECT_EQ(rangeCmp(Opcode::CmpEq, Interval::constant(3),
                     Interval::constant(3)),
            Interval::constant(1));
  EXPECT_EQ(rangeCmp(Opcode::CmpEq, Lo, Hi), Interval::constant(0));
}

} // namespace

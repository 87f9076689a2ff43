//===- tests/FaultTests.cpp - failure containment smoke tests -----------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The failure-containment contract, end to end: interpreter limits
/// (step-limit exhaustion, traps) and deterministically injected faults
/// (support/FaultInjection.h) each become one quarantined UnitFailure
/// while the rest of the batch completes bit-identical to a batch where
/// the failing unit never existed. The fault matrix walks every known
/// site at several occurrences; the retry test shows a transient fault
/// converging back to the fault-free result.
///
//===----------------------------------------------------------------------===//

#include "driver/BatchPipeline.h"
#include "driver/DecisionTrace.h"
#include "driver/Pipeline.h"
#include "ir/IrPrinter.h"
#include "support/FaultInjection.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <map>

using namespace impact;

namespace {

/// A program that never terminates on its own: only a step limit stops it.
const char *const kLoopingProgram = R"MC(
extern int getchar();
int main() {
  int x;
  x = 1;
  while (x) { x = x + 1; }
  return 0;
}
)MC";

/// Divides by an input-derived zero (empty input: getchar() == -1).
const char *const kDivByZeroProgram = R"MC(
extern int getchar();
int main() {
  int c;
  c = getchar();
  return 1 / (c + 1);
}
)MC";

/// Indexes far past a global array; the index is input-derived so no
/// optimization can fold the access away.
const char *const kOutOfBoundsProgram = R"MC(
extern int getchar();
int arr[4];
int main() {
  int i;
  i = getchar();
  return arr[(i & 1) + 1000000];
}
)MC";

std::vector<BatchJob> makeJobs() {
  const struct {
    const char *Name;
    const char *Source;
  } Programs[] = {
      {"call_heavy", test::kCallHeavyProgram},
      {"recursive", test::kRecursiveProgram},
      {"pointer_call", test::kPointerCallProgram},
  };
  std::vector<BatchJob> Jobs;
  for (const auto &P : Programs) {
    BatchJob Job;
    Job.Name = P.Name;
    Job.Source = P.Source;
    Job.Inputs = {RunInput{"abc", ""}, RunInput{"", ""}};
    Jobs.push_back(std::move(Job));
  }
  return Jobs;
}

/// Everything observable must match (timing counters exempt).
void expectSameResult(const PipelineResult &A, const PipelineResult &B,
                      const std::string &Tag) {
  ASSERT_EQ(A.Ok, B.Ok) << Tag;
  EXPECT_EQ(A.Error, B.Error) << Tag;
  EXPECT_TRUE(A.Before == B.Before) << Tag;
  EXPECT_TRUE(A.After == B.After) << Tag;
  EXPECT_EQ(A.OutputsBefore, B.OutputsBefore) << Tag;
  EXPECT_EQ(A.OutputsAfter, B.OutputsAfter) << Tag;
  EXPECT_EQ(printModule(A.FinalModule), printModule(B.FinalModule)) << Tag;
}

FaultPlan parsePlan(const std::string &Spec) {
  FaultPlan Plan;
  std::string Diag;
  EXPECT_TRUE(parseFaultPlan(Spec, Plan, &Diag)) << Spec << ": " << Diag;
  return Plan;
}

//===----------------------------------------------------------------------===//
// Interpreter limits as quarantined failures
//===----------------------------------------------------------------------===//

TEST(FaultContainment, StepLimitExhaustionIsQuarantined) {
  std::vector<BatchJob> Jobs = makeJobs();
  BatchJob Looper;
  Looper.Name = "looper";
  Looper.Source = kLoopingProgram;
  Looper.Inputs = {RunInput{"", ""}};
  Looper.Options.Run.StepLimit = 10000; // keep the test fast
  Jobs.insert(Jobs.begin() + 1, Looper);

  BatchResult Clean = runBatchPipeline(makeJobs());
  ASSERT_TRUE(Clean.allOk());

  BatchResult R = runBatchPipeline(Jobs);
  EXPECT_FALSE(R.allOk());
  ASSERT_EQ(R.Results.size(), 4u);
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Unit, "looper");
  EXPECT_EQ(R.Failures[0].Stage, "profile");
  EXPECT_EQ(R.Failures[0].Reason, "step-limit");
  EXPECT_NE(R.Failures[0].Detail.find("step limit"), std::string::npos);
  EXPECT_EQ(R.Aggregate.UnitsFailed, 1u);

  // Every other unit is bit-identical to the batch without the looper.
  expectSameResult(Clean.Results[0], R.Results[0], "call_heavy");
  expectSameResult(Clean.Results[1], R.Results[2], "recursive");
  expectSameResult(Clean.Results[2], R.Results[3], "pointer_call");
}

TEST(FaultContainment, DivByZeroTrapIsQuarantined) {
  std::vector<BatchJob> Jobs = makeJobs();
  BatchJob Bad;
  Bad.Name = "div_zero";
  Bad.Source = kDivByZeroProgram;
  Bad.Inputs = {RunInput{"", ""}};
  Jobs.push_back(Bad);

  BatchResult R = runBatchPipeline(Jobs);
  EXPECT_FALSE(R.allOk());
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Unit, "div_zero");
  EXPECT_EQ(R.Failures[0].Stage, "profile");
  EXPECT_EQ(R.Failures[0].Reason, "trap");
  EXPECT_TRUE(R.Results[0].Ok);
  EXPECT_TRUE(R.Results[1].Ok);
  EXPECT_TRUE(R.Results[2].Ok);
}

TEST(FaultContainment, OutOfBoundsTrapIsQuarantined) {
  std::vector<BatchJob> Jobs = makeJobs();
  BatchJob Bad;
  Bad.Name = "oob";
  Bad.Source = kOutOfBoundsProgram;
  Bad.Inputs = {RunInput{"", ""}};
  Jobs.push_back(Bad);

  BatchResult R = runBatchPipeline(Jobs);
  EXPECT_FALSE(R.allOk());
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Unit, "oob");
  EXPECT_EQ(R.Failures[0].Stage, "profile");
  EXPECT_EQ(R.Failures[0].Reason, "trap");
}

//===----------------------------------------------------------------------===//
// Engine parity: the VM produces the same quarantine records
//===----------------------------------------------------------------------===//

/// Runs \p Source alone under both engines and asserts the quarantined
/// UnitFailure carries the same stage and reason — a step-limit or trap
/// failure classifies identically no matter which engine hit it.
void expectSameQuarantine(const char *Name, const char *Source,
                          uint64_t StepLimit = 0) {
  BatchResult PerEngine[2];
  const ExecEngine Engines[2] = {ExecEngine::Walker, ExecEngine::Vm};
  for (int E = 0; E != 2; ++E) {
    BatchJob Job;
    Job.Name = Name;
    Job.Source = Source;
    Job.Inputs = {RunInput{"", ""}};
    Job.Options.Engine = Engines[E];
    if (StepLimit)
      Job.Options.Run.StepLimit = StepLimit;
    PerEngine[E] = runBatchPipeline({Job});
  }
  const BatchResult &Walk = PerEngine[0];
  const BatchResult &Vm = PerEngine[1];
  ASSERT_EQ(Walk.Failures.size(), 1u) << Name;
  ASSERT_EQ(Vm.Failures.size(), 1u) << Name;
  EXPECT_EQ(Walk.Failures[0].Unit, Vm.Failures[0].Unit) << Name;
  EXPECT_EQ(Walk.Failures[0].Stage, Vm.Failures[0].Stage) << Name;
  EXPECT_EQ(Walk.Failures[0].Reason, Vm.Failures[0].Reason) << Name;
  EXPECT_EQ(Walk.Failures[0].Detail, Vm.Failures[0].Detail) << Name;
}

TEST(EngineFaultParity, StepLimitQuarantinesIdentically) {
  expectSameQuarantine("looper", kLoopingProgram, 10000);
}

TEST(EngineFaultParity, DivByZeroQuarantinesIdentically) {
  expectSameQuarantine("div_zero", kDivByZeroProgram);
}

TEST(EngineFaultParity, OutOfBoundsQuarantinesIdentically) {
  expectSameQuarantine("oob", kOutOfBoundsProgram);
}

TEST(EngineFaultParity, IntrinsicMisuseQuarantinesIdentically) {
  // malloc with a negative word count is intrinsic misuse; both engines
  // must classify it as the same profile-stage trap.
  const char *Misuse = R"MC(
extern int malloc(int words);
int main() { return malloc(0 - 5); }
)MC";
  expectSameQuarantine("bad_malloc", Misuse);
}

TEST(EngineFaultParity, VmStepLimitFailureIsStructured) {
  // The VM path alone, checked against the documented quarantine shape
  // (stage and reason strings are part of the UnitFailure contract).
  BatchJob Job;
  Job.Name = "looper";
  Job.Source = kLoopingProgram;
  Job.Inputs = {RunInput{"", ""}};
  Job.Options.Engine = ExecEngine::Vm;
  Job.Options.Run.StepLimit = 10000;
  BatchResult R = runBatchPipeline({Job});
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Stage, "profile");
  EXPECT_EQ(R.Failures[0].Reason, "step-limit");
  EXPECT_NE(R.Failures[0].Detail.find("step limit"), std::string::npos);
}

TEST(EngineFaultParity, VmTrapFailureIsStructured) {
  BatchJob Job;
  Job.Name = "div_zero";
  Job.Source = kDivByZeroProgram;
  Job.Inputs = {RunInput{"", ""}};
  Job.Options.Engine = ExecEngine::Vm;
  BatchResult R = runBatchPipeline({Job});
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Stage, "profile");
  EXPECT_EQ(R.Failures[0].Reason, "trap");
  EXPECT_NE(R.Failures[0].Detail.find("division by zero"),
            std::string::npos);
}

TEST(EngineFaultParity, HealthyBatchIsEngineInvariantUnderVm) {
  // The quarantine machinery aside, a healthy batch under engine=vm is
  // bit-identical to the walker batch.
  std::vector<BatchJob> Walk = makeJobs();
  std::vector<BatchJob> Vm = makeJobs();
  for (BatchJob &Job : Vm)
    Job.Options.Engine = ExecEngine::Vm;
  BatchResult A = runBatchPipeline(Walk);
  BatchResult B = runBatchPipeline(Vm);
  ASSERT_TRUE(A.allOk());
  ASSERT_TRUE(B.allOk());
  for (size_t I = 0; I != A.Results.size(); ++I)
    expectSameResult(A.Results[I], B.Results[I], Walk[I].Name);
}

//===----------------------------------------------------------------------===//
// Injected faults: the site x occurrence matrix
//===----------------------------------------------------------------------===//

/// The pipeline stage each site's failure must be attributed to. Every
/// known fault site is a pipeline site.
const std::map<std::string, std::string> &siteToStage() {
  static const std::map<std::string, std::string> Map = {
      {"parse", "compile"},   {"sema", "compile"},
      {"irgen", "compile"},   {"pass", "pre-opt"},
      {"profile", "profile"}, {"expand", "inline"},
      {"reprofile", "re-profile"},
  };
  return Map;
}

TEST(FaultMatrix, EverySiteEveryOccurrence) {
  // Counting pass: an empty (but non-null) plan records each site's
  // arrival count without firing anything — and must not perturb the
  // result at all.
  std::vector<BatchJob> Jobs = makeJobs();
  FaultPlan Empty;
  Jobs[0].Options.Faults = &Empty;
  BatchOptions Serial;
  Serial.Jobs = 1;
  BatchResult Baseline = runBatchPipeline(Jobs, Serial);
  ASSERT_TRUE(Baseline.allOk());
  std::map<std::string, uint64_t> Arrivals(
      Baseline.Results[0].FaultSiteHits.begin(),
      Baseline.Results[0].FaultSiteHits.end());

  for (const std::string &Site : getKnownFaultSites()) {
    ASSERT_TRUE(siteToStage().count(Site)) << "unmapped site: " << Site;
    ASSERT_TRUE(Arrivals.count(Site)) << "site never reached: " << Site;
    uint64_t Last = Arrivals[Site];
    ASSERT_GE(Last, 1u) << Site;
    std::vector<uint64_t> Ks = {1};
    if (Last >= 2)
      Ks.push_back(2);
    if (Last > 2)
      Ks.push_back(Last);
    for (uint64_t K : Ks) {
      std::string Spec =
          "call_heavy/" + Site + ":throw@" + std::to_string(K);
      FaultPlan Plan = parsePlan(Spec);
      std::vector<BatchJob> FaultJobs = makeJobs();
      FaultJobs[0].Options.Faults = &Plan;
      BatchResult R = runBatchPipeline(FaultJobs, Serial);

      EXPECT_FALSE(R.allOk()) << Spec;
      ASSERT_EQ(R.Failures.size(), 1u) << Spec;
      EXPECT_EQ(R.Failures[0].Unit, "call_heavy") << Spec;
      EXPECT_EQ(R.Failures[0].Stage, siteToStage().at(Site)) << Spec;
      EXPECT_EQ(R.Failures[0].Reason, "fault-injected") << Spec;
      EXPECT_NE(R.Failures[0].Detail.find(Site), std::string::npos) << Spec;

      // The throw unwound at exactly the K-th arrival.
      std::map<std::string, uint64_t> Hits(
          R.Results[0].FaultSiteHits.begin(),
          R.Results[0].FaultSiteHits.end());
      EXPECT_EQ(Hits[Site], K) << Spec;

      // The other units are bit-identical to the fault-free batch.
      expectSameResult(Baseline.Results[1], R.Results[1], Spec);
      expectSameResult(Baseline.Results[2], R.Results[2], Spec);
    }
  }
}

TEST(FaultMatrix, InjectionIsThreadCountInvariant) {
  // Occurrence counters are per-unit and thread-confined, so the same
  // spec fires identically at any job count.
  FaultPlan Plan = parsePlan("call_heavy/expand:throw@1");
  std::vector<BatchJob> Jobs = makeJobs();
  Jobs[0].Options.Faults = &Plan;
  BatchOptions Serial, Wide;
  Serial.Jobs = 1;
  Wide.Jobs = 4;
  BatchResult A = runBatchPipeline(Jobs, Serial);
  BatchResult B = runBatchPipeline(Jobs, Wide);
  ASSERT_EQ(A.Failures.size(), 1u);
  ASSERT_EQ(B.Failures.size(), 1u);
  EXPECT_EQ(A.Failures[0].Unit, B.Failures[0].Unit);
  EXPECT_EQ(A.Failures[0].Stage, B.Failures[0].Stage);
  EXPECT_EQ(A.Failures[0].Reason, B.Failures[0].Reason);
  EXPECT_EQ(A.Failures[0].Detail, B.Failures[0].Detail);
  for (size_t I = 1; I != Jobs.size(); ++I)
    expectSameResult(A.Results[I], B.Results[I], Jobs[I].Name);
}

//===----------------------------------------------------------------------===//
// Fault kinds beyond throw
//===----------------------------------------------------------------------===//

TEST(FaultKinds, OomAtPass) {
  FaultPlan Plan = parsePlan("pass:oom@1");
  std::vector<BatchJob> Jobs = makeJobs();
  Jobs[0].Options.Faults = &Plan;
  BatchResult R = runBatchPipeline(Jobs);
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Unit, "call_heavy");
  EXPECT_EQ(R.Failures[0].Stage, "pre-opt");
  EXPECT_EQ(R.Failures[0].Reason, "oom");
}

TEST(FaultKinds, InjectedDiagnosticAtParse) {
  FaultPlan Plan = parsePlan("parse:diag@1");
  PipelineOptions Options;
  Options.Faults = &Plan;
  PipelineResult R = runPipeline(test::kCallHeavyProgram, "unit",
                                 {RunInput{"ab", ""}}, Options);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Failure.Stage, "compile");
  EXPECT_EQ(R.Failure.Reason, "diagnostic");
  EXPECT_NE(R.Failure.Detail.find("injected diagnostic"),
            std::string::npos);
  // Legacy error string shape is preserved for existing callers.
  EXPECT_EQ(R.Error.rfind("compilation failed:", 0), 0u);
}

TEST(FaultKinds, InjectedStepLimitAtProfile) {
  FaultPlan Plan = parsePlan("profile:steplimit@1");
  PipelineOptions Options;
  Options.Faults = &Plan;
  PipelineResult R = runPipeline(test::kCallHeavyProgram, "unit",
                                 {RunInput{"ab", ""}}, Options);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Failure.Stage, "profile");
  EXPECT_EQ(R.Failure.Reason, "step-limit");
}

TEST(FaultKinds, UnitScopedRuleSparesOtherUnits) {
  FaultPlan Plan = parsePlan("recursive/expand:throw@1");
  std::vector<BatchJob> Jobs = makeJobs();
  for (BatchJob &Job : Jobs)
    Job.Options.Faults = &Plan; // same plan everywhere; only one matches
  BatchResult R = runBatchPipeline(Jobs);
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].Unit, "recursive");
  EXPECT_TRUE(R.Results[0].Ok);
  EXPECT_TRUE(R.Results[2].Ok);
}

//===----------------------------------------------------------------------===//
// Bounded retry
//===----------------------------------------------------------------------===//

TEST(FaultRetry, TransientFaultSurvivedByRetry) {
  PipelineOptions Clean;
  PipelineResult Expected = runPipeline(test::kCallHeavyProgram, "unit",
                                        {RunInput{"ab", ""}}, Clean);
  ASSERT_TRUE(Expected.Ok);

  // Fires on attempt 1 only; one retry must converge to the clean result.
  FaultPlan Plan = parsePlan("profile:throw@1x1");
  PipelineOptions Options;
  Options.Faults = &Plan;
  Options.RetryAttempts = 1;
  PipelineResult R = runPipeline(test::kCallHeavyProgram, "unit",
                                 {RunInput{"ab", ""}}, Options);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Stats.Retries, 1u);
  expectSameResult(Expected, R, "retry");

  // Without the retry budget the same plan fails.
  Options.RetryAttempts = 0;
  PipelineResult F = runPipeline(test::kCallHeavyProgram, "unit",
                                 {RunInput{"ab", ""}}, Options);
  EXPECT_FALSE(F.Ok);
  EXPECT_EQ(F.Failure.Reason, "fault-injected");
  EXPECT_EQ(F.Failure.Attempts, 1u);
}

TEST(FaultRetry, PersistentFaultExhaustsAttempts) {
  FaultPlan Plan = parsePlan("expand:throw@1"); // no attempt bound
  PipelineOptions Options;
  Options.Faults = &Plan;
  Options.RetryAttempts = 2;
  PipelineResult R = runPipeline(test::kCallHeavyProgram, "unit",
                                 {RunInput{"ab", ""}}, Options);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Failure.Attempts, 3u);
  EXPECT_EQ(R.Stats.Retries, 2u);
  EXPECT_EQ(R.Stats.UnitsFailed, 1u);
}

//===----------------------------------------------------------------------===//
// Failure rendering
//===----------------------------------------------------------------------===//

TEST(FailureRendering, RenderAndJsonCarryEveryField) {
  UnitFailure F;
  F.Unit = "wc";
  F.Stage = "profile";
  F.Reason = "step-limit";
  F.Detail = "run 0: step limit exceeded";
  F.Attempts = 2;
  std::string Text = F.render();
  EXPECT_EQ(Text, "unit 'wc' failed at profile (step-limit) after "
                  "2 attempt(s): run 0: step limit exceeded");

  std::string Json = renderUnitFailureJson(F);
  EXPECT_NE(Json.find("\"program\":\"wc\""), std::string::npos);
  EXPECT_NE(Json.find("\"failed\":true"), std::string::npos);
  EXPECT_NE(Json.find("\"stage\":\"profile\""), std::string::npos);
  EXPECT_NE(Json.find("\"reason\":\"step-limit\""), std::string::npos);
  EXPECT_NE(Json.find("\"attempts\":2"), std::string::npos);
  EXPECT_EQ(Json.back(), '\n');

  // Quotes and newlines in the detail must be escaped.
  F.Detail = "line1\n\"quoted\"";
  std::string Escaped = renderUnitFailureJson(F, "override");
  EXPECT_NE(Escaped.find("\"program\":\"override\""), std::string::npos);
  EXPECT_NE(Escaped.find("line1\\n\\\"quoted\\\""), std::string::npos);
}

} // namespace

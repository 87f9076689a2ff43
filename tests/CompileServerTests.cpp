//===- tests/CompileServerTests.cpp - Incremental equals fresh -------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile server's contract: after ANY script of add/replace/remove/
/// recompile requests, every program's emitted module, outputs, decision
/// trace, and profile are bit-identical to a from-scratch compile of the
/// same sources — at jobs=1 and jobs=4 — while warm recompiles touch only
/// the changed unit's reverse-transitive call-graph dependents (pinned
/// exact sets for a hand-built DAG and a mutual-recursion cycle, asserted
/// by the touched-unit counter, never by timing). Failure containment:
/// broken units, broken links, and injected faults quarantine and retry;
/// the server never dies.
///
//===----------------------------------------------------------------------===//

#include "driver/BatchPipeline.h"
#include "driver/CompileServer.h"
#include "driver/Linker.h"
#include "driver/ServerScript.h"
#include "ir/IrPrinter.h"
#include "suite/Suite.h"
#include "support/FaultInjection.h"
#include "RandomProgram.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace impact;

namespace {

PipelineOptions tracedOptions() {
  PipelineOptions Options;
  Options.EmitDecisionTrace = true;
  return Options;
}

std::vector<RunInput> twoRuns() { return {{"abc", ""}, {"", ""}}; }

/// The bit-identity the server promises: modules, outputs, traces, and
/// profiles all equal — never "close enough".
void expectSameProgram(const PipelineResult &Incremental,
                       const PipelineResult &Fresh, const std::string &Tag) {
  ASSERT_TRUE(Incremental.Ok) << Tag << ": " << Incremental.Error;
  ASSERT_TRUE(Fresh.Ok) << Tag << ": " << Fresh.Error;
  EXPECT_EQ(printModule(Incremental.FinalModule),
            printModule(Fresh.FinalModule))
      << Tag;
  EXPECT_EQ(Incremental.OutputsBefore, Fresh.OutputsBefore) << Tag;
  EXPECT_EQ(Incremental.OutputsAfter, Fresh.OutputsAfter) << Tag;
  EXPECT_EQ(Incremental.DecisionTrace, Fresh.DecisionTrace) << Tag;
  EXPECT_EQ(Incremental.ProfileBefore, Fresh.ProfileBefore) << Tag;
}

/// From-scratch reference for a multi-unit program: compile every unit,
/// link, run the pipeline.
PipelineResult freshMulti(
    const std::vector<std::pair<std::string, std::string>> &UnitSources,
    const std::string &Name, const std::vector<RunInput> &Inputs,
    const PipelineOptions &Options) {
  std::vector<Module> Modules;
  for (const auto &[UnitName, Source] : UnitSources) {
    CompilationResult C = compileMiniC(Source, UnitName,
                                       /*RequireMain=*/false);
    EXPECT_TRUE(C.Ok) << UnitName << ":\n" << C.Errors;
    Modules.push_back(std::move(C.M));
  }
  LinkResult Linked = linkModules(std::move(Modules), Name);
  EXPECT_TRUE(Linked.Ok) << Name << ": " << Linked.Error;
  return runPipeline(std::move(Linked.M), Inputs, Options);
}

std::vector<std::string> names(std::initializer_list<const char *> List) {
  return {List.begin(), List.end()};
}

//===----------------------------------------------------------------------===//
// Satellite wiring: precompiled-module batch jobs.
//===----------------------------------------------------------------------===//

TEST(BatchModuleJobs, PrecompiledModuleJobMatchesSourceJob) {
  const BenchmarkSpec *B = findBenchmark("wc");
  ASSERT_NE(B, nullptr);
  std::vector<RunInput> Inputs = makeBenchmarkInputs(*B, 2);

  PipelineResult FromSource =
      runPipeline(B->Source, B->Name, Inputs, tracedOptions());
  ASSERT_TRUE(FromSource.Ok) << FromSource.Error;

  CompilationResult C = compileMiniC(B->Source, B->Name);
  ASSERT_TRUE(C.Ok) << C.Errors;
  BatchJob Job;
  Job.Name = B->Name;
  Job.Inputs = Inputs;
  Job.Options = tracedOptions();
  Job.HasModule = true;
  Job.PrecompiledModule = std::move(C.M);

  BatchResult Batch = runBatchPipeline({Job});
  ASSERT_EQ(Batch.Results.size(), 1u);
  expectSameProgram(Batch.Results[0], FromSource, "module-job wc");
}

//===----------------------------------------------------------------------===//
// Incremental equals fresh.
//===----------------------------------------------------------------------===//

TEST(CompileServer, SingleUnitProgramMatchesFreshPipeline) {
  const BenchmarkSpec *B = findBenchmark("wc");
  ASSERT_NE(B, nullptr);
  std::vector<RunInput> Inputs = makeBenchmarkInputs(*B, 2);

  ServerOptions Options;
  Options.Pipeline = tracedOptions();
  CompileServer Server(Options);
  std::string Error;
  ASSERT_TRUE(Server.addUnit("wc", B->Source, &Error)) << Error;
  ASSERT_TRUE(Server.defineProgram("wc", names({"wc"}), Inputs, &Error))
      << Error;
  RecompileStats Stats = Server.recompile("*", &Error);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(Stats.TouchedUnits, 1u);
  EXPECT_EQ(Stats.RecompiledPrograms, 1u);

  const PipelineResult *Result = Server.getResult("wc");
  ASSERT_NE(Result, nullptr);
  PipelineResult Fresh = runPipeline(B->Source, "wc", Inputs, tracedOptions());
  expectSameProgram(*Result, Fresh, "wc");
  EXPECT_TRUE(Server.getFailures().empty());
}

class ServerJobs : public ::testing::TestWithParam<unsigned> {};

TEST_P(ServerJobs, SuiteIncrementalEqualsFreshAfterEdits) {
  ServerOptions Options;
  Options.Jobs = GetParam();
  Options.Pipeline = tracedOptions();
  CompileServer Server(Options);

  const std::vector<BenchmarkSpec> &Suite = getBenchmarkSuite();
  for (const BenchmarkSpec &B : Suite) {
    ASSERT_TRUE(Server.addUnit(B.Name, B.Source));
    ASSERT_TRUE(Server.defineProgram(B.Name, {B.Name},
                                     makeBenchmarkInputs(B, 2)));
  }

  // Cold build: every unit compiles once.
  RecompileStats Cold = Server.recompile();
  EXPECT_EQ(Cold.TouchedUnits, Suite.size());
  EXPECT_EQ(Cold.RecompiledPrograms, Suite.size());
  EXPECT_EQ(Cold.CleanPrograms, 0u);

  // A recompile with nothing changed is free: zero touched units, every
  // program served from the result cache.
  RecompileStats Clean = Server.recompile();
  EXPECT_EQ(Clean.TouchedUnits, 0u);
  EXPECT_EQ(Clean.RecompiledPrograms, 0u);
  EXPECT_EQ(Clean.CleanPrograms, Suite.size());

  // Warm recompile after a one-unit edit: exactly that unit is touched —
  // the acceptance criterion, asserted by the counter, not by timing.
  std::map<std::string, std::string> Current;
  for (const BenchmarkSpec &B : Suite)
    Current[B.Name] = B.Source;
  Current["wc"] += "\nint server_test_pad(int x) { return x + 41; }\n";
  ASSERT_TRUE(Server.replaceUnit("wc", Current["wc"]));
  RecompileStats Warm = Server.recompile();
  EXPECT_EQ(Warm.TouchedUnits, 1u);
  EXPECT_EQ(Warm.TouchedUnitNames, names({"wc"}));
  EXPECT_EQ(Warm.RecompiledPrograms, 1u);
  EXPECT_EQ(Warm.CleanPrograms, Suite.size() - 1);

  // A two-unit edit touches exactly those two.
  Current["grep"] += "\nint server_test_pad(int x) { return x - 7; }\n";
  Current["cmp"] += "\nint server_test_pad2(int x) { return x * 3; }\n";
  ASSERT_TRUE(Server.replaceUnit("grep", Current["grep"]));
  ASSERT_TRUE(Server.replaceUnit("cmp", Current["cmp"]));
  RecompileStats Warm2 = Server.recompile();
  EXPECT_EQ(Warm2.TouchedUnits, 2u);
  EXPECT_EQ(Warm2.TouchedUnitNames, names({"cmp", "grep"}));
  EXPECT_EQ(Warm2.CleanPrograms, Suite.size() - 2);

  // The property: after the whole request script, every program is
  // bit-identical to a from-scratch compile of its current source.
  for (const BenchmarkSpec &B : Suite) {
    const PipelineResult *Result = Server.getResult(B.Name);
    ASSERT_NE(Result, nullptr) << B.Name;
    PipelineResult Fresh = runPipeline(Current[B.Name], B.Name,
                                       makeBenchmarkInputs(B, 2),
                                       tracedOptions());
    expectSameProgram(*Result, Fresh, B.Name);
  }
  EXPECT_TRUE(Server.getFailures().empty());
}

TEST_P(ServerJobs, RandomProgramsIncrementalEqualsFresh) {
  constexpr uint64_t kSeeds = 64;
  ServerOptions Options;
  Options.Jobs = GetParam();
  Options.Pipeline = tracedOptions();
  CompileServer Server(Options);

  std::map<std::string, std::string> Current;
  for (uint64_t Seed = 0; Seed != kSeeds; ++Seed) {
    std::string Name = "r" + std::to_string(Seed);
    Current[Name] = test::generateRandomProgram(Seed);
    ASSERT_TRUE(Server.addUnit(Name, Current[Name]));
    ASSERT_TRUE(Server.defineProgram(Name, {Name}, twoRuns()));
  }
  RecompileStats Cold = Server.recompile();
  EXPECT_EQ(Cold.TouchedUnits, kSeeds);
  ASSERT_EQ(Cold.RecompiledPrograms + Cold.FailedPrograms, kSeeds);
  EXPECT_EQ(Cold.FailedPrograms, 0u);

  // Replace every fifth program with a different generated source.
  uint64_t Replaced = 0;
  for (uint64_t Seed = 0; Seed < kSeeds; Seed += 5) {
    std::string Name = "r" + std::to_string(Seed);
    Current[Name] = test::generateRandomProgram(Seed + 1000);
    ASSERT_TRUE(Server.replaceUnit(Name, Current[Name]));
    ++Replaced;
  }
  RecompileStats Warm = Server.recompile();
  EXPECT_EQ(Warm.TouchedUnits, Replaced);
  EXPECT_EQ(Warm.CleanPrograms, kSeeds - Replaced);

  for (const auto &[Name, Source] : Current) {
    const PipelineResult *Result = Server.getResult(Name);
    ASSERT_NE(Result, nullptr) << Name;
    PipelineResult Fresh =
        runPipeline(Source, Name, twoRuns(), tracedOptions());
    expectSameProgram(*Result, Fresh, Name);
  }
  EXPECT_TRUE(Server.getFailures().empty());
}

INSTANTIATE_TEST_SUITE_P(Jobs, ServerJobs, ::testing::Values(1u, 4u),
                         [](const auto &Info) {
                           return "jobs" + std::to_string(Info.param);
                         });

//===----------------------------------------------------------------------===//
// Invalidation audit: pinned dependent sets over hand-built graphs.
//===----------------------------------------------------------------------===//

const char *kUtilSource = R"MC(
int add1(int x) { return x + 1; }
int twice(int x) { return x * 2; }
)MC";

const char *kMid1Source = R"MC(
extern int add1(int x);
int inc2(int x) { return add1(add1(x)); }
)MC";

const char *kMid2Source = R"MC(
extern int twice(int x);
int quad(int x) { return twice(twice(x)); }
)MC";

const char *kAppSource = R"MC(
extern int inc2(int x);
extern int quad(int x);
extern int print_int(int v);
extern int putchar(int c);
int main() {
  print_int(inc2(3) + quad(5));
  putchar('\n');
  return 0;
}
)MC";

/// Audits on: every incremental step must keep the analyzer's
/// weight-conservation and call-graph audits clean (error findings would
/// fail the unit outright).
PipelineOptions auditedOptions() {
  PipelineOptions Options = tracedOptions();
  Options.Analyze = true;
  std::string Error;
  EXPECT_TRUE(parseAnalysisRules("audit-callgraph,audit-weight-conservation",
                                 Options.Analysis, &Error))
      << Error;
  return Options;
}

TEST(CompileServer, DagInvalidationTouchesExactlyTheDependents) {
  ServerOptions Options;
  Options.Pipeline = auditedOptions();
  CompileServer Server(Options);

  std::map<std::string, std::string> Sources = {{"util", kUtilSource},
                                                {"mid1", kMid1Source},
                                                {"mid2", kMid2Source},
                                                {"app", kAppSource}};
  for (const auto &[Name, Source] : Sources)
    ASSERT_TRUE(Server.addUnit(Name, Source));
  ASSERT_TRUE(Server.defineProgram("prog",
                                   names({"util", "mid1", "mid2", "app"}),
                                   {{"", ""}}));

  // Before the first compile no modules exist, so no dependency edges.
  EXPECT_EQ(Server.getDependents("util"), names({"util"}));

  RecompileStats Cold = Server.recompile();
  EXPECT_EQ(Cold.TouchedUnits, 4u);
  ASSERT_EQ(Cold.RecompiledPrograms, 1u)
      << (Server.getFailures().empty()
              ? std::string("no failure recorded")
              : Server.getFailures().back().render());

  // The pinned reverse-transitive closures of the DAG
  // util -> {mid1, mid2} -> app.
  EXPECT_EQ(Server.getDependents("util"),
            names({"app", "mid1", "mid2", "util"}));
  EXPECT_EQ(Server.getDependents("mid1"), names({"app", "mid1"}));
  EXPECT_EQ(Server.getDependents("mid2"), names({"app", "mid2"}));
  EXPECT_EQ(Server.getDependents("app"), names({"app"}));

  auto checkStep = [&](const std::string &Tag,
                       const std::vector<std::string> &ExpectTouched) {
    RecompileStats Stats = Server.recompile();
    EXPECT_EQ(Stats.TouchedUnitNames, ExpectTouched) << Tag;
    EXPECT_EQ(Stats.TouchedUnits, ExpectTouched.size()) << Tag;
    const PipelineResult *Result = Server.getResult("prog");
    ASSERT_NE(Result, nullptr) << Tag;
    ASSERT_TRUE(Result->Ok) << Tag << ": " << Result->Error;
    EXPECT_FALSE(Result->Analysis.hasErrors())
        << Tag << ": audits must stay clean after every incremental step:\n"
        << Result->Analysis.renderText();
    PipelineResult Fresh = freshMulti({{"util", Sources["util"]},
                                       {"mid1", Sources["mid1"]},
                                       {"mid2", Sources["mid2"]},
                                       {"app", Sources["app"]}},
                                      "prog", {{"", ""}}, auditedOptions());
    expectSameProgram(*Result, Fresh, Tag);
  };

  // Leaf edit: everything above it recompiles — and nothing else exists
  // here, so all four.
  Sources["util"] =
      "int add1(int x) { return x + 1; }\n"
      "int twice(int x) { return x + x; }\n";
  ASSERT_TRUE(Server.replaceUnit("util", Sources["util"]));
  checkStep("edit util", names({"app", "mid1", "mid2", "util"}));

  // Middle edit: itself plus app.
  Sources["mid1"] =
      "extern int add1(int x);\n"
      "int inc2(int x) { return add1(x) + 1; }\n";
  ASSERT_TRUE(Server.replaceUnit("mid1", Sources["mid1"]));
  checkStep("edit mid1", names({"app", "mid1"}));

  // Root edit: only itself.
  Sources["app"] =
      "extern int inc2(int x);\n"
      "extern int quad(int x);\n"
      "extern int print_int(int v);\n"
      "extern int putchar(int c);\n"
      "int main() {\n"
      "  print_int(inc2(4) * quad(2));\n"
      "  putchar('\\n');\n"
      "  return 0;\n"
      "}\n";
  ASSERT_TRUE(Server.replaceUnit("app", Sources["app"]));
  checkStep("edit app", names({"app"}));

  EXPECT_TRUE(Server.getFailures().empty());
}

TEST(CompileServer, CycleInvalidationTouchesTheWholeCycle) {
  ServerOptions Options;
  Options.Pipeline = auditedOptions();
  CompileServer Server(Options);

  std::map<std::string, std::string> Sources;
  Sources["p"] =
      "extern int qf(int x);\n"
      "int pf(int x) { if (x <= 0) { return 0; } return qf(x - 1) + 1; }\n";
  Sources["q"] =
      "extern int pf(int x);\n"
      "int qf(int x) { if (x <= 0) { return 0; } return pf(x - 1) + 2; }\n";
  Sources["r"] =
      "extern int pf(int x);\n"
      "extern int print_int(int v);\n"
      "extern int putchar(int c);\n"
      "int main() { print_int(pf(7)); putchar('\\n'); return 0; }\n";
  for (const auto &[Name, Source] : Sources)
    ASSERT_TRUE(Server.addUnit(Name, Source));
  ASSERT_TRUE(Server.defineProgram("cyc", names({"p", "q", "r"}),
                                   {{"", ""}}));
  RecompileStats Cold = Server.recompile();
  EXPECT_EQ(Cold.TouchedUnits, 3u);
  ASSERT_EQ(Cold.RecompiledPrograms, 1u);

  // p and q form a mutual-recursion cycle; r calls into it. Editing
  // either cycle member invalidates the whole cycle plus r.
  EXPECT_EQ(Server.getDependents("p"), names({"p", "q", "r"}));
  EXPECT_EQ(Server.getDependents("q"), names({"p", "q", "r"}));
  EXPECT_EQ(Server.getDependents("r"), names({"r"}));

  Sources["q"] =
      "extern int pf(int x);\n"
      "int qf(int x) { if (x <= 0) { return 1; } return pf(x - 1) + 2; }\n";
  ASSERT_TRUE(Server.replaceUnit("q", Sources["q"]));
  RecompileStats Warm = Server.recompile();
  EXPECT_EQ(Warm.TouchedUnitNames, names({"p", "q", "r"}));

  const PipelineResult *Result = Server.getResult("cyc");
  ASSERT_NE(Result, nullptr);
  EXPECT_FALSE(Result->Analysis.hasErrors()) << Result->Analysis.renderText();
  PipelineResult Fresh = freshMulti(
      {{"p", Sources["p"]}, {"q", Sources["q"]}, {"r", Sources["r"]}}, "cyc",
      {{"", ""}}, auditedOptions());
  expectSameProgram(*Result, Fresh, "cycle after edit");
  EXPECT_TRUE(Server.getFailures().empty());
}

TEST(CompileServer, TargetedRecompileLeavesOtherProgramsDirty) {
  ServerOptions Options;
  Options.Pipeline = tracedOptions();
  CompileServer Server(Options);
  ASSERT_TRUE(Server.addUnit("a", test::kCallHeavyProgram));
  ASSERT_TRUE(Server.addUnit("b", test::kRecursiveProgram));
  ASSERT_TRUE(Server.defineProgram("a", {"a"}, twoRuns()));
  ASSERT_TRUE(Server.defineProgram("b", {"b"}, twoRuns()));

  RecompileStats OnlyA = Server.recompile("a");
  EXPECT_EQ(OnlyA.TouchedUnitNames, names({"a"}));
  EXPECT_EQ(OnlyA.RecompiledPrograms, 1u);
  EXPECT_NE(Server.getResult("a"), nullptr);
  EXPECT_EQ(Server.getResult("b"), nullptr) << "b must stay dirty";

  std::string Error;
  RecompileStats Unknown = Server.recompile("zzz", &Error);
  EXPECT_FALSE(Error.empty());
  EXPECT_EQ(Unknown.TouchedUnits, 0u);

  RecompileStats Rest = Server.recompile("*");
  EXPECT_EQ(Rest.TouchedUnitNames, names({"b"}));
  EXPECT_EQ(Rest.CleanPrograms, 1u);
  EXPECT_NE(Server.getResult("b"), nullptr);
}

//===----------------------------------------------------------------------===//

TEST(CompileServer, BrokenUnitIsQuarantinedAndFixedByReplace) {
  ServerOptions Options;
  Options.Pipeline = tracedOptions();
  CompileServer Server(Options);
  ASSERT_TRUE(Server.addUnit("bad", "int main( { return 0; }"));
  ASSERT_TRUE(Server.addUnit("good", test::kCallHeavyProgram));
  ASSERT_TRUE(Server.defineProgram("bad", {"bad"}, twoRuns()));
  ASSERT_TRUE(Server.defineProgram("good", {"good"}, twoRuns()));

  RecompileStats Stats = Server.recompile();
  EXPECT_EQ(Stats.FailedPrograms, 1u);
  EXPECT_EQ(Stats.RecompiledPrograms, 1u)
      << "the good program must be untouched by the bad one";
  EXPECT_EQ(Server.getResult("bad"), nullptr);
  ASSERT_NE(Server.getResult("good"), nullptr);
  ASSERT_FALSE(Server.getFailures().empty());
  EXPECT_EQ(Server.getFailures().front().Unit, "bad");
  EXPECT_EQ(Server.getFailures().front().Stage, "compile");
  EXPECT_EQ(Server.getFailures().front().Reason, "diagnostic");

  // Fixing the unit recovers on the next recompile — and only it is
  // touched.
  ASSERT_TRUE(Server.replaceUnit("bad", test::kRecursiveProgram));
  RecompileStats Fixed = Server.recompile();
  EXPECT_EQ(Fixed.TouchedUnitNames, names({"bad"}));
  EXPECT_EQ(Fixed.FailedPrograms, 0u);
  const PipelineResult *Result = Server.getResult("bad");
  ASSERT_NE(Result, nullptr);
  PipelineResult Fresh =
      runPipeline(test::kRecursiveProgram, "bad", twoRuns(), tracedOptions());
  expectSameProgram(*Result, Fresh, "fixed bad");
}

TEST(CompileServer, TransientCompileFaultRecoversOnRetry) {
  FaultPlan Plan;
  ASSERT_TRUE(parseFaultPlan("flaky/parse:throw@1x1", Plan));
  ServerOptions Options;
  Options.Pipeline = tracedOptions();
  Options.Pipeline.Faults = &Plan;
  CompileServer Server(Options);
  ASSERT_TRUE(Server.addUnit("flaky", test::kCallHeavyProgram));
  ASSERT_TRUE(Server.defineProgram("flaky", {"flaky"}, twoRuns()));

  RecompileStats First = Server.recompile();
  EXPECT_EQ(First.FailedPrograms, 1u);
  ASSERT_FALSE(Server.getFailures().empty());
  EXPECT_EQ(Server.getFailures().back().Reason, "fault-injected");
  EXPECT_EQ(Server.getResult("flaky"), nullptr);

  // The unit stayed dirty; attempt 2 is past the fault's attempt bound,
  // so the same request now succeeds — bit-identical to a never-faulted
  // compile.
  RecompileStats Second = Server.recompile();
  EXPECT_EQ(Second.TouchedUnitNames, names({"flaky"}));
  EXPECT_EQ(Second.FailedPrograms, 0u);
  const PipelineResult *Result = Server.getResult("flaky");
  ASSERT_NE(Result, nullptr);
  PipelineResult Fresh = runPipeline(test::kCallHeavyProgram, "flaky",
                                     twoRuns(), tracedOptions());
  expectSameProgram(*Result, Fresh, "flaky after retry");
}

TEST(CompileServer, RemovedUnitQuarantinesItsProgramsUntilReadded) {
  ServerOptions Options;
  Options.Pipeline = tracedOptions();
  CompileServer Server(Options);
  std::map<std::string, std::string> Sources = {{"util", kUtilSource},
                                                {"mid1", kMid1Source},
                                                {"mid2", kMid2Source},
                                                {"app", kAppSource}};
  for (const auto &[Name, Source] : Sources)
    ASSERT_TRUE(Server.addUnit(Name, Source));
  ASSERT_TRUE(Server.defineProgram("prog",
                                   names({"util", "mid1", "mid2", "app"}),
                                   {{"", ""}}));
  ASSERT_EQ(Server.recompile().RecompiledPrograms, 1u);

  ASSERT_TRUE(Server.removeUnit("mid2"));
  RecompileStats Broken = Server.recompile();
  EXPECT_EQ(Broken.FailedPrograms, 1u);
  ASSERT_FALSE(Server.getFailures().empty());
  EXPECT_EQ(Server.getFailures().back().Reason, "missing-unit");
  // The last good result stays queryable while the program is broken.
  EXPECT_NE(Server.getResult("prog"), nullptr);

  ASSERT_TRUE(Server.addUnit("mid2", kMid2Source));
  RecompileStats Fixed = Server.recompile();
  EXPECT_EQ(Fixed.FailedPrograms, 0u);
  EXPECT_EQ(Fixed.RecompiledPrograms, 1u);
  PipelineResult Fresh = freshMulti({{"util", kUtilSource},
                                     {"mid1", kMid1Source},
                                     {"mid2", kMid2Source},
                                     {"app", kAppSource}},
                                    "prog", {{"", ""}}, tracedOptions());
  expectSameProgram(*Server.getResult("prog"), Fresh, "prog after re-add");
}

TEST(CompileServer, DuplicateDefinitionFailsTheLinkAndRecovers) {
  ServerOptions Options;
  Options.Pipeline = tracedOptions();
  CompileServer Server(Options);
  ASSERT_TRUE(Server.addUnit("util", kUtilSource));
  // A second unit that also defines add1: a link-time conflict.
  ASSERT_TRUE(Server.addUnit("dup",
                             "int add1(int x) { return x + 100; }\n"));
  ASSERT_TRUE(Server.addUnit("mid1", kMid1Source));
  ASSERT_TRUE(Server.addUnit("mid2", kMid2Source));
  ASSERT_TRUE(Server.addUnit("app", kAppSource));
  ASSERT_TRUE(Server.defineProgram(
      "prog", names({"util", "dup", "mid1", "mid2", "app"}), {{"", ""}}));

  RecompileStats Broken = Server.recompile();
  EXPECT_EQ(Broken.FailedPrograms, 1u);
  ASSERT_FALSE(Server.getFailures().empty());
  EXPECT_EQ(Server.getFailures().back().Stage, "link");

  // Dropping the conflicting unit from the program recovers.
  ASSERT_TRUE(Server.defineProgram(
      "prog", names({"util", "mid1", "mid2", "app"}), {{"", ""}}));
  RecompileStats Fixed = Server.recompile();
  EXPECT_EQ(Fixed.FailedPrograms, 0u);
  EXPECT_EQ(Fixed.RecompiledPrograms, 1u);
}

//===----------------------------------------------------------------------===//
// The request script surface.
//===----------------------------------------------------------------------===//

TEST(ServerScript, ReplayIsDeterministic) {
  std::string Script = test::makeServerScript();
  std::string Transcripts[2];
  for (std::string &Transcript : Transcripts) {
    ServerOptions Options;
    Options.Pipeline = tracedOptions();
    CompileServer Server(Options);
    ServerScriptResult R = runServerScript(Server, Script);
    ASSERT_TRUE(R.Ok) << R.Error;
    Transcript = R.Transcript;
  }
  EXPECT_EQ(Transcripts[0], Transcripts[1])
      << "replaying one script must reproduce the transcript byte for byte";

  EXPECT_NE(
      Transcripts[0].find("[recompile] target=* touched=2 units=[one,two] "
                          "programs=2 clean=0 failed=0"),
      std::string::npos)
      << Transcripts[0];
  EXPECT_NE(Transcripts[0].find("[recompile] target=one touched=1 "
                                "units=[one] programs=1 clean=0 failed=0"),
            std::string::npos)
      << Transcripts[0];
  EXPECT_NE(Transcripts[0].find("[recompile] target=* touched=0 units=[] "
                                "programs=0 clean=2 failed=0"),
            std::string::npos)
      << Transcripts[0];
  // A replace reports the size of the source it installed.
  EXPECT_NE(Transcripts[0].find("[replace] one ("), std::string::npos);
  EXPECT_EQ(Transcripts[0].find("[replace] one (0 bytes)"), std::string::npos)
      << Transcripts[0];
  EXPECT_NE(Transcripts[0].find("[suite-inputs] three <- wc x2"),
            std::string::npos)
      << Transcripts[0];

  // The counter lines are thread-count independent: a 4-thread server
  // replays the same script to the same transcript.
  std::string Reference;
  for (unsigned Jobs : {1u, 4u}) {
    ServerOptions Options;
    Options.Jobs = Jobs;
    Options.Pipeline = tracedOptions();
    CompileServer Server(Options);
    ServerScriptResult R = runServerScript(Server, Script);
    ASSERT_TRUE(R.Ok) << R.Error;
    if (Reference.empty())
      Reference = R.Transcript;
    else
      EXPECT_EQ(R.Transcript, Reference) << "jobs=" << Jobs;
  }
}

TEST(ServerScript, SuiteInputsRunCountHasABudget) {
  // One run over the budget is a line-numbered diagnostic, reported before
  // any input is generated; exactly the budget is accepted.
  auto RunWith = [](unsigned Runs) {
    CompileServer Server;
    return runServerScript(Server, "suite-unit p wc\n"
                                   "program p = p\n"
                                   "suite-inputs p wc " +
                                       std::to_string(Runs) + "\n");
  };
  ServerScriptResult Over = RunWith(kMaxSuiteInputRuns + 1);
  EXPECT_FALSE(Over.Ok);
  EXPECT_EQ(Over.Error.rfind("line 3: ", 0), 0u) << Over.Error;
  EXPECT_NE(Over.Error.find("exceeds the budget"), std::string::npos)
      << Over.Error;
  EXPECT_EQ(Over.Transcript.find("[suite-inputs]"), std::string::npos)
      << Over.Transcript;

  ServerScriptResult AtBudget = RunWith(kMaxSuiteInputRuns);
  ASSERT_TRUE(AtBudget.Ok) << AtBudget.Error;
  EXPECT_NE(AtBudget.Transcript.find(
                "[suite-inputs] p <- wc x" +
                std::to_string(kMaxSuiteInputRuns)),
            std::string::npos)
      << AtBudget.Transcript;
}

TEST(ServerScript, InputTextStartsAfterTheProgramName) {
  // A program name that also occurs inside the verb ("t" in "input") must
  // not shift where the input text starts.
  ServerOptions Options;
  CompileServer Server(Options);
  ServerScriptResult R = runServerScript(
      Server, "unit t <<E\n"
              "extern int getchar();\n"
              "extern int putchar(int c);\n"
              "int main() { int c; c = getchar();\n"
              "  while (c >= 0) { putchar(c); c = getchar(); }\n"
              "  return 0; }\n"
              "E\n"
              "program t = t\n"
              "input t hello\n"
              "recompile\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  const PipelineResult *Result = Server.getResult("t");
  ASSERT_NE(Result, nullptr) << R.Transcript;
  EXPECT_EQ(Result->OutputsBefore, std::vector<std::string>{"hello"});
}

TEST(ServerScript, MalformedScriptsAreRejectedWithTheOffendingLine) {
  ServerOptions Options;
  CompileServer Server(Options);

  ServerScriptResult Unknown = runServerScript(Server, "frobnicate now\n");
  EXPECT_FALSE(Unknown.Ok);
  EXPECT_NE(Unknown.Error.find("line 1"), std::string::npos)
      << Unknown.Error;

  ServerScriptResult Unterminated =
      runServerScript(Server, "unit u <<END\nint x;\n");
  EXPECT_FALSE(Unterminated.Ok);
  EXPECT_NE(Unterminated.Error.find("heredoc"), std::string::npos)
      << Unterminated.Error;

  // Request-level failures do NOT stop the script: they become [error]
  // transcript lines, like any quarantined unit.
  ServerScriptResult Dup = runServerScript(Server, test::kDuplicateUnitScript);
  EXPECT_TRUE(Dup.Ok) << Dup.Error;
  EXPECT_NE(Dup.Transcript.find("[error]"), std::string::npos)
      << Dup.Transcript;
}

} // namespace

//===- tests/ProfilePersistenceTests.cpp - saved profiles drive replans -------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistence contract over the whole benchmark suite: measure a
/// profile, serialize it through the text format, and demand that a
/// compile driven by the reloaded profile (PipelineOptions::ProfileIn)
/// reproduces the measuring run's InlinePlan bit for bit — every site's
/// status, verdict, and decision numbers, and the ExpansionOrder — both
/// through the serial pipeline (under every engine and instrumentation
/// mode) and through a 4-thread batch. A profile of another module never
/// replays: the unit is quarantined.
///
//===----------------------------------------------------------------------===//

#include "driver/BatchPipeline.h"
#include "driver/Pipeline.h"
#include "profile/ProfileIO.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

using namespace impact;

namespace {

class ProfilePersistence : public ::testing::TestWithParam<std::string> {};

TEST_P(ProfilePersistence, ReloadedProfileReproducesThePlan) {
  const BenchmarkSpec *B = findBenchmark(GetParam());
  ASSERT_NE(B, nullptr) << GetParam();
  std::vector<RunInput> Inputs = makeBenchmarkInputs(*B, 2);

  // Replay compares a profile's site and function counts with the
  // module's, so every way of measuring must size the profile exactly to
  // the module it ran.
  for (ExecEngine Engine :
       {ExecEngine::Walker, ExecEngine::Vm, ExecEngine::Both})
    for (InstrumentMode Mode :
         {InstrumentMode::Full, InstrumentMode::MinCover}) {
      SCOPED_TRACE("engine " + std::to_string(static_cast<int>(Engine)) +
                   ", instrument " + std::to_string(static_cast<int>(Mode)));
      PipelineOptions Options;
      Options.Engine = Engine;
      Options.Instrument = Mode;

      // Measuring run: profile on the inputs, plan, expand.
      PipelineResult Measured =
          runPipeline(B->Source, B->Name, Inputs, Options);
      ASSERT_TRUE(Measured.Ok) << B->Name << ": " << Measured.Error;
      ASSERT_TRUE(Measured.outputsMatch()) << B->Name;

      // The profile round-trips bit-identically through the text format.
      ProfileData Reloaded;
      std::string Error;
      ASSERT_TRUE(loadProfile(saveProfile(Measured.ProfileBefore), Reloaded,
                              &Error))
          << B->Name << ": " << Error;
      ASSERT_EQ(Reloaded, Measured.ProfileBefore) << B->Name;

      // Serial replay: the reloaded profile must reproduce the whole plan
      // — statuses, verdicts, decision numbers, expansion order — and the
      // same final program.
      Options.ProfileIn = &Reloaded;
      PipelineResult Replayed =
          runPipeline(B->Source, B->Name, Inputs, Options);
      ASSERT_TRUE(Replayed.Ok) << B->Name << ": " << Replayed.Error;
      EXPECT_TRUE(Replayed.OutputsBefore.empty())
          << B->Name << ": profile-in must skip the measuring runs";
      EXPECT_EQ(Replayed.Inline.Plan, Measured.Inline.Plan) << B->Name;
      EXPECT_EQ(Replayed.Inline.Plan.ExpansionOrder,
                Measured.Inline.Plan.ExpansionOrder)
          << B->Name;
      EXPECT_EQ(Replayed.Inline.Expansions, Measured.Inline.Expansions)
          << B->Name;
      // The replayed compile still re-profiles, so behaviour preservation
      // is checked against the measuring run's outputs.
      EXPECT_EQ(Replayed.OutputsAfter, Measured.OutputsAfter) << B->Name;
    }
}

TEST_P(ProfilePersistence, ReplayMatchesThroughParallelBatch) {
  const BenchmarkSpec *B = findBenchmark(GetParam());
  ASSERT_NE(B, nullptr) << GetParam();
  std::vector<RunInput> Inputs = makeBenchmarkInputs(*B, 2);

  PipelineResult Measured = runPipeline(B->Source, B->Name, Inputs);
  ASSERT_TRUE(Measured.Ok) << B->Name << ": " << Measured.Error;

  ProfileData Reloaded;
  ASSERT_TRUE(loadProfile(saveProfile(Measured.ProfileBefore), Reloaded));

  // Two copies of the replay job through a 4-thread batch: both must
  // match the serial measuring run exactly (ProfileIn composes with the
  // batch pipeline's determinism contract).
  BatchJob Job;
  Job.Name = B->Name;
  Job.Source = B->Source;
  Job.Inputs = Inputs;
  Job.Options.ProfileIn = &Reloaded;
  std::vector<BatchJob> Jobs = {Job, Job};

  BatchOptions Batch;
  Batch.Jobs = 4;
  BatchResult R = runBatchPipeline(Jobs, Batch);
  ASSERT_TRUE(R.allOk()) << B->Name;
  for (const PipelineResult &Res : R.Results) {
    EXPECT_EQ(Res.Inline.Plan, Measured.Inline.Plan) << B->Name;
    EXPECT_EQ(Res.OutputsAfter, Measured.OutputsAfter) << B->Name;
  }
}

TEST(ProfileReplay, ForeignProfileQuarantines) {
  // cccp's profile (more sites and functions than wc has) must not drive
  // wc's compile: the weights would land on unrelated sites.
  const BenchmarkSpec *Cccp = findBenchmark("cccp");
  const BenchmarkSpec *Wc = findBenchmark("wc");
  ASSERT_NE(Cccp, nullptr);
  ASSERT_NE(Wc, nullptr);
  std::vector<RunInput> WcInputs = makeBenchmarkInputs(*Wc, 1);
  PipelineResult Foreign =
      runPipeline(Cccp->Source, Cccp->Name, makeBenchmarkInputs(*Cccp, 1));
  PipelineResult Own = runPipeline(Wc->Source, Wc->Name, WcInputs);
  ASSERT_TRUE(Foreign.Ok) << Foreign.Error;
  ASSERT_TRUE(Own.Ok) << Own.Error;
  const ProfileData &F = Foreign.ProfileBefore, &O = Own.ProfileBefore;
  ASSERT_NE(F.getNumSites(), O.getNumSites());

  PipelineOptions Replay;
  Replay.ProfileIn = &F;
  PipelineResult R = runPipeline(Wc->Source, Wc->Name, WcInputs, Replay);
  ASSERT_FALSE(R.Ok) << "a cccp profile drove wc's compile";
  EXPECT_EQ(R.Failure.Unit, "wc");
  EXPECT_EQ(R.Failure.Stage, "profile");
  EXPECT_EQ(R.Failure.Reason, "diagnostic");
  EXPECT_EQ(R.Failure.Detail,
            "saved profile has " + std::to_string(F.getNumSites()) +
                " sites and " + std::to_string(F.getNumFuncs()) +
                " functions; the module has " +
                std::to_string(O.getNumSites()) + " sites and " +
                std::to_string(O.getNumFuncs()) + " functions");
}

std::vector<std::string> suiteNames() {
  std::vector<std::string> Names;
  for (const BenchmarkSpec &B : getBenchmarkSuite())
    Names.push_back(B.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(Suite, ProfilePersistence,
                         ::testing::ValuesIn(suiteNames()),
                         [](const auto &Info) { return Info.param; });

} // namespace

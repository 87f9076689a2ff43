//===- tests/ProfileIoTests.cpp - profile save/load round trips ---------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/ProfileIO.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>

using namespace impact;
using test::compileOk;

namespace {

ProfileData measuredProfile(const char *Source,
                            const std::vector<std::string> &Inputs) {
  Module M = compileOk(Source);
  ProfileResult P = test::profileInputs(M, Inputs);
  EXPECT_TRUE(P.allRunsOk());
  return P.Data;
}

TEST(ProfileIo, EmptyProfileRoundTrips) {
  ProfileData Empty;
  ProfileData Loaded;
  std::string Error;
  ASSERT_TRUE(loadProfile(saveProfile(Empty), Loaded, &Error)) << Error;
  EXPECT_EQ(Loaded, Empty);
}

TEST(ProfileIo, MeasuredProfileRoundTripsExactly) {
  ProfileData P = measuredProfile(
      test::kCallHeavyProgram,
      {std::string(30, 'x'), std::string(7, 'y'), ""});
  ASSERT_GT(P.getNumRuns(), 0u);
  ASSERT_GT(P.getNumSites(), 0u);

  ProfileData Loaded;
  std::string Error;
  ASSERT_TRUE(loadProfile(saveProfile(P), Loaded, &Error)) << Error;
  EXPECT_EQ(Loaded, P);
  // Spot-check the derived metrics too — same totals, same averages.
  EXPECT_DOUBLE_EQ(Loaded.getAvgInstrs(), P.getAvgInstrs());
  EXPECT_DOUBLE_EQ(Loaded.getAvgDynamicCalls(), P.getAvgDynamicCalls());
  for (uint32_t S = 0; S != static_cast<uint32_t>(P.getNumSites()); ++S)
    EXPECT_DOUBLE_EQ(Loaded.getArcWeight(S), P.getArcWeight(S)) << S;
}

TEST(ProfileIo, SecondSaveIsIdentical) {
  // save -> load -> save is a fixed point: the text form is canonical.
  ProfileData P = measuredProfile(test::kRecursiveProgram, {"ab"});
  std::string First = saveProfile(P);
  ProfileData Loaded;
  ASSERT_TRUE(loadProfile(First, Loaded));
  EXPECT_EQ(saveProfile(Loaded), First);
}

TEST(ProfileIo, SparseVectorsKeepTheirSize) {
  // Zero totals are omitted from the text but the vector sizes (== site
  // and function id spaces) must reload exactly.
  ProfileData P = measuredProfile(test::kPointerCallProgram, {"x"});
  ProfileData Loaded;
  ASSERT_TRUE(loadProfile(saveProfile(P), Loaded));
  EXPECT_EQ(Loaded.getNumSites(), P.getNumSites());
  EXPECT_EQ(Loaded.getNumFuncs(), P.getNumFuncs());
}

TEST(ProfileIo, RejectsMissingHeader) {
  ProfileData Out;
  std::string Error;
  EXPECT_FALSE(loadProfile("runs 3\n", Out, &Error));
  EXPECT_NE(Error.find("impact-profile"), std::string::npos) << Error;
}

TEST(ProfileIo, RejectsTruncatedInput) {
  std::string Text = saveProfile(ProfileData());
  // Drop the trailing sections.
  std::string Truncated = Text.substr(0, Text.find("calls"));
  ProfileData Out;
  std::string Error;
  EXPECT_FALSE(loadProfile(Truncated, Out, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(ProfileIo, RejectsMalformedNumbers) {
  ProfileData Out;
  std::string Error;
  EXPECT_FALSE(loadProfile("impact-profile v1\nruns 3x\n", Out, &Error));
  EXPECT_NE(Error.find("bad number"), std::string::npos) << Error;
}

TEST(ProfileIo, RejectsOutOfRangeSiteIndex) {
  ProfileData P = measuredProfile(test::kCallHeavyProgram, {"abc"});
  std::string Text = saveProfile(P);
  // Append an entry beyond the declared funcs size.
  Text += "99999 1\n";
  ProfileData Out;
  std::string Error;
  EXPECT_FALSE(loadProfile(Text, Out, &Error));
  EXPECT_NE(Error.find("out of range"), std::string::npos) << Error;
}

TEST(ProfileIo, FileRoundTrip) {
  ProfileData P = measuredProfile(test::kCallHeavyProgram, {"hello"});
  std::string Path =
      (std::filesystem::temp_directory_path() / "impact_profile_io_test.txt")
          .string();
  std::string Error;
  ASSERT_TRUE(saveProfileToFile(Path, P, &Error)) << Error;
  ProfileData Loaded;
  ASSERT_TRUE(loadProfileFromFile(Path, Loaded, &Error)) << Error;
  EXPECT_EQ(Loaded, P);
  std::remove(Path.c_str());
}

TEST(ProfileIo, MissingFileReportsError) {
  ProfileData Out;
  std::string Error;
  EXPECT_FALSE(loadProfileFromFile("/nonexistent/impact.profile", Out,
                                   &Error));
  EXPECT_NE(Error.find("cannot open"), std::string::npos) << Error;
}

TEST(ProfileIo, RejectsDuplicateSparseEntry) {
  // A repeated index must fail with a line-numbered diagnostic, never
  // silently last-write-wins (regression: a doubly-concatenated artifact
  // used to load cleanly with half its counts dropped).
  const char *Text = "impact-profile v1\n"
                     "runs 1\n"
                     "il 5\n"
                     "ct 1\n"
                     "calls 0\n"
                     "external 0\n"
                     "pointer 0\n"
                     "peak-stack 2\n"
                     "sites 3\n"
                     "1 4\n"
                     "1 4\n"
                     "funcs 1\n"
                     "0 1\n";
  ProfileData Out;
  std::string Error;
  EXPECT_FALSE(loadProfile(Text, Out, &Error));
  EXPECT_EQ(Error, "line 11: duplicate 'sites' entry for index 1");
}

TEST(ProfileIo, RejectsOversizedSection) {
  // A section's declared size is checked against the budget before
  // anything is allocated: a corrupt header must be a diagnostic, never
  // std::length_error or std::bad_alloc out of the loader.
  auto TextWithSites = [](uint64_t Size) {
    return "impact-profile v1\n"
           "runs 1\n"
           "il 5\n"
           "ct 1\n"
           "calls 0\n"
           "external 0\n"
           "pointer 0\n"
           "peak-stack 2\n"
           "sites " +
           std::to_string(Size) +
           "\n"
           "funcs 1\n"
           "0 1\n";
  };
  for (uint64_t Size : {UINT64_MAX, uint64_t(1) << 40,
                        kMaxProfileSectionEntries + 1}) {
    ProfileData Out;
    std::string Error;
    EXPECT_FALSE(loadProfile(TextWithSites(Size), Out, &Error)) << Size;
    EXPECT_EQ(Error, "line 9: 'sites' size " + std::to_string(Size) +
                         " exceeds the budget of " +
                         std::to_string(kMaxProfileSectionEntries) +
                         " entries");
  }
  // The budget itself is accepted (an 8 MiB vector, allocated once).
  ProfileData Out;
  std::string Error;
  EXPECT_TRUE(loadProfile(TextWithSites(kMaxProfileSectionEntries), Out,
                          &Error))
      << Error;
  EXPECT_EQ(Out.getNumSites(), kMaxProfileSectionEntries);
}

} // namespace

//===- profile/ProfileIO.h - Persistent profile artifacts ---------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Textual serialization for ProfileData, so a measured profile is a
/// reusable artifact rather than one-shot in-memory state: profile once,
/// save, and drive any number of later compiles from the file without
/// re-running the interpreter (PipelineOptions::ProfileIn; the benches'
/// --profile-out= / --profile-in= flags).
///
/// Every accumulated statistic is integral (totals, not averages), so the
/// round trip is exact: loadProfile(saveProfile(P)) == P bit for bit, and
/// a plan computed from the reloaded profile is identical to the plan the
/// measuring run computed — including the expansion order.
///
/// Format (line-oriented, versioned):
///
///   impact-profile v1
///   runs 12
///   il 123456
///   ct 23456
///   calls 999
///   external 120
///   pointer 3
///   peak-stack 77
///   sites 14        <- vector size; then one "id total" line per nonzero
///   1 240
///   3 12
///   funcs 5
///   0 12
///   ...
///
/// Sparse sections are strict: each index may appear at most once (a
/// duplicate is rejected with a line-numbered diagnostic, never silently
/// last-write-wins) and must be in range. A section's declared size is
/// bounded by kMaxProfileSectionEntries, so a corrupt header is a
/// diagnostic rather than a multi-gigabyte allocation.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_PROFILE_PROFILEIO_H
#define IMPACT_PROFILE_PROFILEIO_H

#include "profile/Profile.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace impact {

/// Largest size loadProfile accepts for the "sites" or "funcs" section (a
/// module's call-site or function id space): 2^20 entries, 8 MiB of
/// totals. The suite's largest module has 63 call sites and 29 functions
/// after inlining. A declared size above the budget is rejected with a
/// line-numbered diagnostic before anything is allocated.
constexpr uint64_t kMaxProfileSectionEntries = uint64_t(1) << 20;

/// Renders \p Profile in the versioned text format above.
std::string saveProfile(const ProfileData &Profile);

/// Parses a saved profile into \p Out. Returns false (leaving \p Out in an
/// unspecified state) on malformed input; \p Error, when non-null,
/// receives a one-line description of the first problem.
bool loadProfile(std::string_view Text, ProfileData &Out,
                 std::string *Error = nullptr);

/// Writes saveProfile(\p Profile) to \p Path. Returns false and fills
/// \p Error (when non-null) if the file cannot be written.
bool saveProfileToFile(const std::string &Path, const ProfileData &Profile,
                       std::string *Error = nullptr);

/// Reads \p Path and parses it with loadProfile.
bool loadProfileFromFile(const std::string &Path, ProfileData &Out,
                         std::string *Error = nullptr);

} // namespace impact

#endif // IMPACT_PROFILE_PROFILEIO_H

//===- tests/TestUtil.h - Shared test helpers -----------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef IMPACT_TESTS_TESTUTIL_H
#define IMPACT_TESTS_TESTUTIL_H

#include "driver/Compilation.h"
#include "interp/Interpreter.h"
#include "profile/Profiler.h"
#include "support/Hashing.h"

#include <string>
#include <string_view>

namespace impact {
namespace test {

/// Compiles \p Source, failing the current test (ADD_FAILURE) on errors;
/// returns the module regardless so callers can bail out.
Module compileOk(std::string_view Source, bool RequireMain = true);

/// Compiles \p Source expecting failure; returns the rendered errors.
std::string compileErrors(std::string_view Source, bool RequireMain = true);

/// Compiles and runs \p Source on \p Input; fails the test if compilation
/// or execution fails. Returns the program output.
std::string runSource(std::string_view Source, std::string Input = "",
                      std::string Input2 = "");

/// Runs an already-compiled module; fails the test on traps.
ExecResult runOk(const Module &M, std::string Input = "",
                 std::string Input2 = "");

/// Profiles \p M over single-stream inputs.
ProfileResult profileInputs(const Module &M,
                            const std::vector<std::string> &Inputs);

/// Seed count of a randomized tier: IMPACT_FUZZ_SEEDS when set (it must be
/// a positive integer, or the current test fails), else 64; never below
/// the tier's \p Floor.
unsigned getFuzzSeedCount(unsigned Floor);

/// \p H as 32 lowercase hex digits, high half first: the form pinned
/// digests are committed in.
std::string renderHash(const Hash128 &H);

/// A tiny call-heavy program used across many tests: main loops N times
/// (driven by the input length) calling helpers.
extern const char *const kCallHeavyProgram;

/// A program with self recursion (fib) and a large-frame helper, for
/// stack-hazard tests.
extern const char *const kRecursiveProgram;

/// A program with calls through pointers and an external call.
extern const char *const kPointerCallProgram;

/// A compile-server request script over the three programs above: two
/// programs, a full recompile, one edit, a targeted recompile, optional
/// cache counters, and a final recompile (see driver/ServerScript.h).
std::string makeServerScript(bool WithStats);

/// A request script whose second `unit` duplicates the first: a
/// request-level failure that must become an `[error]` line.
extern const char *const kDuplicateUnitScript;

} // namespace test
} // namespace impact

#endif // IMPACT_TESTS_TESTUTIL_H

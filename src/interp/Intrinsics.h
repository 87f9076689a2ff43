//===- interp/Intrinsics.h - External function implementations --------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host implementations of MiniC's `extern` functions. These are the
/// paper's "external functions" (library and system calls): their bodies
/// are unavailable to the compiler, their call sites are never inlinable,
/// and the weighted call graph routes them through the $$$ pseudo node.
///
/// The set mirrors what the 12 benchmark programs need from a UNIX libc:
///   getchar / getchar2  read one character from input stream 1 / 2 (-1 EOF)
///   ungetchar           push one character back onto input stream 1
///   putchar             append one character to the output
///   print_int           append a decimal rendering of the value
///   exit                terminate the program with a status code
///   malloc              allocate N zeroed heap words
///   input_avail         remaining characters on input stream 1
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_INTERP_INTRINSICS_H
#define IMPACT_INTERP_INTRINSICS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace impact {

class Memory;

/// Per-run I/O state: two input streams (cmp-style programs compare a pair
/// of files) and one output stream. The inputs view the run's
/// RunOptions, which outlive the run.
struct IoEnv {
  std::string_view Input;
  size_t InputPos = 0;
  std::string_view Input2;
  size_t Input2Pos = 0;
  std::string Output;
  bool Exited = false;
  int64_t ExitCode = 0;
  /// One pushed-back character for stream 1, or -1.
  int64_t PushedBack = -1;
};

/// Result of one intrinsic invocation.
struct IntrinsicResult {
  bool Ok = true;
  int64_t Value = 0;
  std::string Error;
};

/// The host-side registry. Lookup happens once per external function at
/// program start; unknown extern functions fail at their first call.
class IntrinsicRegistry {
public:
  /// Returns a dense handle for \p Name, or -1 when unknown.
  static int lookup(const std::string &Name);

  /// Invokes intrinsic \p Handle.
  static IntrinsicResult invoke(int Handle, const std::vector<int64_t> &Args,
                                IoEnv &Io, Memory &Mem);

  /// Names of all registered intrinsics (used by suite/ to emit the extern
  /// declarations and by docs).
  static std::vector<std::string> getNames();
};

} // namespace impact

#endif // IMPACT_INTERP_INTRINSICS_H

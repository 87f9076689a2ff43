//===- driver/ServerScript.h - Textual compile-server requests -------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic textual request language for driving a CompileServer —
/// the `--serve-script=` surface of the server bench and the replayable
/// form of a server session for tests. One command per line; blank lines
/// and `#` comments are ignored:
///
///   unit <name> <<DELIM        add a unit; source lines follow until a
///     ...source...             line that is exactly DELIM (shell-heredoc
///   DELIM                      style, any delimiter word)
///   replace <name> <<DELIM     replace a unit's source (same heredoc)
///   remove <name>              remove a unit
///   program <name> = <u1> [<u2> ...]   define/redefine a program
///   input <program> [text]     append one profiled run (stdin = text,
///                              may be empty; repeat for more runs)
///   suite-unit <name> <bench>  add a unit holding a suite benchmark's
///                              source (suite/Suite.h)
///   suite-inputs <program> <bench> [runs]  set the program's inputs to
///                              the benchmark's deterministic workload
///   recompile [target]         recompile `target` (default "*")
///   stats                      append cache counters to the transcript
///
/// Execution appends one transcript line per command, e.g.
///   [recompile] target=* touched=3 units=[mid1,mid2,util] programs=2
///   clean=10 failed=0
/// The transcript contains no timings or absolute paths, so replaying a
/// script against an equivalent server reproduces it byte for byte — the
/// script-determinism test in the server tier pins that.
///
/// Malformed commands (unknown verb, missing heredoc terminator, bad
/// argument counts) stop execution with Ok=false; request-level failures
/// (duplicate unit, unknown program) append an `[error]` transcript line
/// and continue, matching the server's quarantine philosophy.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_DRIVER_SERVERSCRIPT_H
#define IMPACT_DRIVER_SERVERSCRIPT_H

#include <string>
#include <string_view>

namespace impact {

class CompileServer;

struct ServerScriptResult {
  /// False only for a malformed script (parse error); request-level
  /// failures are `[error]` transcript lines instead.
  bool Ok = false;
  /// Parse diagnostic naming the offending line when !Ok.
  std::string Error;
  /// One line per executed command (see file comment).
  std::string Transcript;
};

/// Executes \p Script against \p Server, top to bottom.
ServerScriptResult runServerScript(CompileServer &Server,
                                   std::string_view Script);

} // namespace impact

#endif // IMPACT_DRIVER_SERVERSCRIPT_H

//===- driver/CompileServer.h - Incremental compile session ----------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compile server: a long-lived session that accepts unit-level requests
/// (add/replace/remove a translation unit, define a program over units,
/// recompile, query results) and keeps the module graph and the
/// function-definition cache alive across requests. Where the batch
/// pipeline re-runs the world every invocation, the server re-runs only
/// what a change can reach:
///
///  - Editing a unit invalidates the unit plus its reverse-transitive
///    call-graph dependents — every unit that declares `extern` a function
///    the edited unit defines, transitively. Dependents must be
///    recompiled because inline expansion splices dependency bodies into
///    them; unrelated units keep their cached modules. The per-recompile
///    touched-unit counter (RecompileStats::TouchedUnits) counts exactly
///    the frontend compiles that ran, so O(dependents) warm recompiles
///    are asserted structurally, not by timing.
///  - Programs whose member units are all clean are served from the
///    program-level result cache without running anything.
///  - Per-function pre-opt work inside a recompiled program still hits
///    the server's in-memory FunctionDefinitionCache, so an edit re-runs
///    pre-opt only on the bodies it changed.
///
/// Determinism contract: every frontend compile, link, and pipeline stage
/// is deterministic, and cache hits are bit-identical to recomputation,
/// so after ANY script of requests each program's emitted module,
/// decision trace, and profile is bit-identical to a from-scratch batch
/// compile of the same sources — at any thread count. The server tier's
/// incremental-equals-fresh property test enforces this.
///
/// Failure containment (PR 3 semantics carried over): a unit that fails
/// to compile, a program that fails to link, and a pipeline attempt that
/// faults are each quarantined as a UnitFailure; the failing unit/program
/// stays dirty so the next recompile retries it (transient faults
/// recover), every other program completes untouched, and the cache is
/// never poisoned.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_DRIVER_COMPILESERVER_H
#define IMPACT_DRIVER_COMPILESERVER_H

#include "driver/FunctionCache.h"
#include "driver/Pipeline.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace impact {

struct ServerOptions {
  /// Worker threads for each recompile's program batch; 0 = one per
  /// hardware thread.
  unsigned Jobs = 1;
  /// Pipeline knobs applied to every program. DefCache is overridden by
  /// the server's own cache; Faults (when set) also covers the server's
  /// unit compiles.
  PipelineOptions Pipeline;
};

/// What one recompile request did. All counters are per-request.
struct RecompileStats {
  /// Frontend compiles that ran — the invalidation-audit observable. A
  /// unit shared by several dirty programs is compiled (and counted)
  /// once.
  uint64_t TouchedUnits = 0;
  /// The touched units, sorted by name.
  std::vector<std::string> TouchedUnitNames;
  /// Programs whose pipeline ran to a successful result.
  uint64_t RecompiledPrograms = 0;
  /// Selected programs that were already clean (served from the result
  /// cache; zero work).
  uint64_t CleanPrograms = 0;
  /// Programs quarantined this request (unit compile, link, or pipeline
  /// failure); they stay dirty and retry next recompile.
  uint64_t FailedPrograms = 0;
};

class CompileServer {
public:
  explicit CompileServer(ServerOptions Options = ServerOptions());

  CompileServer(const CompileServer &) = delete;
  CompileServer &operator=(const CompileServer &) = delete;

  /// Registers a new unit. Fails (false + \p Error) if \p Name exists.
  bool addUnit(const std::string &Name, std::string Source,
               std::string *Error = nullptr);
  /// Replaces an existing unit's source and dirties the unit plus its
  /// reverse-transitive dependents (and every program containing any of
  /// them). Fails if \p Name is unknown.
  bool replaceUnit(const std::string &Name, std::string Source,
                   std::string *Error = nullptr);
  /// Removes a unit, dirtying its dependents. Programs still referencing
  /// it quarantine with a missing-unit failure at their next recompile.
  bool removeUnit(const std::string &Name, std::string *Error = nullptr);
  /// Defines (or redefines, which dirties) a program as an ordered list
  /// of unit names. Single-unit programs run the pipeline directly on the
  /// unit's module; multi-unit programs link first (driver/Linker.h).
  bool defineProgram(const std::string &Name, std::vector<std::string> Units,
                     std::vector<RunInput> Inputs = {},
                     std::string *Error = nullptr);
  /// Replaces a program's profiled inputs (dirties the program).
  bool setProgramInputs(const std::string &Name, std::vector<RunInput> Inputs,
                        std::string *Error = nullptr);

  /// Recompiles \p Target ("*" = every program): compiles dirty member
  /// units once each, relinks and re-runs the pipeline of every dirty
  /// selected program (ServerOptions::Jobs at a time). Clean programs
  /// are untouched. Fails (empty stats + \p Error) only for an unknown
  /// target.
  RecompileStats recompile(const std::string &Target = "*",
                           std::string *Error = nullptr);

  /// Last successful pipeline result for \p Program; null when it never
  /// compiled cleanly.
  const PipelineResult *getResult(const std::string &Program) const;
  /// The unit names a change to \p Unit invalidates: the unit itself plus
  /// its reverse-transitive dependents, sorted. Edges come from the last
  /// compiled module of each unit.
  std::vector<std::string> getDependents(const std::string &Unit) const;
  /// Cumulative quarantine log (unit, link, and pipeline failures), in
  /// occurrence order.
  const std::vector<UnitFailure> &getFailures() const { return Failures; }

  FunctionCacheStats getCacheStats() const { return Cache.getStats(); }

private:
  struct UnitState {
    std::string Source;
    /// Last successful frontend compile of Source.
    Module M;
    bool Compiled = false;
    /// Needs a frontend recompile before its programs can run.
    bool Dirty = true;
    bool Failed = false;
    /// Function names this unit defines (non-external bodies).
    std::set<std::string> Defs;
    /// Function names this unit declares extern without a body.
    std::set<std::string> Externs;
    /// Cumulative compile attempts — the FaultSession attempt index, so
    /// `unit/parse:throw@1x1` is a transient fault one retry survives.
    unsigned Attempts = 0;
  };

  struct ProgramState {
    std::vector<std::string> Units;
    std::vector<RunInput> Inputs;
    bool Dirty = true;
    bool HasResult = false;
    PipelineResult Result;
  };

  /// Marks \p Unit and its reverse-transitive dependents dirty and
  /// latches every program containing any of them dirty.
  void invalidate(const std::string &Unit);
  void dirtyProgramsOf(const std::string &Unit);
  /// Reverse-transitive dependents of \p Unit (including it), by the
  /// current Defs/Externs edges.
  std::set<std::string> dependentClosure(const std::string &Unit) const;
  /// Frontend-compiles \p Name (fault sites parse/sema/irgen contained).
  /// Returns false after recording a quarantine; the unit stays dirty.
  bool compileUnit(const std::string &Name, UnitState &Unit);
  void recordFailure(UnitFailure Failure);

  ServerOptions Options;
  FunctionDefinitionCache Cache;
  std::map<std::string, UnitState> Units;
  std::map<std::string, ProgramState> Programs;
  /// Definition order of programs — recompile processes (and the batch
  /// runs) in this order so results are schedule-independent.
  std::vector<std::string> ProgramOrder;
  std::vector<UnitFailure> Failures;
};

} // namespace impact

#endif // IMPACT_DRIVER_COMPILESERVER_H

//===- driver/CompileServer.cpp --------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/CompileServer.h"

#include "driver/BatchPipeline.h"
#include "driver/Linker.h"
#include "support/FaultInjection.h"

#include <new>
#include <utility>

using namespace impact;

CompileServer::CompileServer(ServerOptions Opts) : Options(std::move(Opts)) {}

bool CompileServer::addUnit(const std::string &Name, std::string Source,
                            std::string *Error) {
  if (Units.count(Name)) {
    if (Error)
      *Error = "unit '" + Name + "' already exists (use replace)";
    return false;
  }
  UnitState &Unit = Units[Name];
  Unit.Source = std::move(Source);
  dirtyProgramsOf(Name);
  if (Error)
    Error->clear();
  return true;
}

bool CompileServer::replaceUnit(const std::string &Name, std::string Source,
                                std::string *Error) {
  auto It = Units.find(Name);
  if (It == Units.end()) {
    if (Error)
      *Error = "unknown unit '" + Name + "'";
    return false;
  }
  // Compute the dependent closure BEFORE installing the new source: the
  // edges of the last compiled module are what current programs spliced.
  // (New edges the edit introduces are rebuilt when the unit recompiles,
  // and their programs are dirty through this unit anyway.)
  invalidate(Name);
  It->second.Source = std::move(Source);
  It->second.Compiled = false;
  It->second.Failed = false;
  if (Error)
    Error->clear();
  return true;
}

bool CompileServer::removeUnit(const std::string &Name, std::string *Error) {
  auto It = Units.find(Name);
  if (It == Units.end()) {
    if (Error)
      *Error = "unknown unit '" + Name + "'";
    return false;
  }
  invalidate(Name);
  Units.erase(It);
  if (Error)
    Error->clear();
  return true;
}

bool CompileServer::defineProgram(const std::string &Name,
                                  std::vector<std::string> UnitNames,
                                  std::vector<RunInput> Inputs,
                                  std::string *Error) {
  if (UnitNames.empty()) {
    if (Error)
      *Error = "program '" + Name + "' has no units";
    return false;
  }
  if (!Programs.count(Name))
    ProgramOrder.push_back(Name);
  ProgramState &Program = Programs[Name];
  Program.Units = std::move(UnitNames);
  Program.Inputs = std::move(Inputs);
  Program.Dirty = true;
  if (Error)
    Error->clear();
  return true;
}

bool CompileServer::setProgramInputs(const std::string &Name,
                                     std::vector<RunInput> Inputs,
                                     std::string *Error) {
  auto It = Programs.find(Name);
  if (It == Programs.end()) {
    if (Error)
      *Error = "unknown program '" + Name + "'";
    return false;
  }
  It->second.Inputs = std::move(Inputs);
  It->second.Dirty = true;
  if (Error)
    Error->clear();
  return true;
}

std::set<std::string> CompileServer::dependentClosure(
    const std::string &Unit) const {
  std::set<std::string> Closure = {Unit};
  std::vector<std::string> Work = {Unit};
  while (!Work.empty()) {
    auto It = Units.find(Work.back());
    Work.pop_back();
    if (It == Units.end())
      continue;
    const std::set<std::string> &Defs = It->second.Defs;
    for (const auto &[Name, State] : Units) {
      if (Closure.count(Name))
        continue;
      bool Depends = false;
      for (const std::string &Extern : State.Externs)
        if (Defs.count(Extern)) {
          Depends = true;
          break;
        }
      if (Depends) {
        Closure.insert(Name);
        Work.push_back(Name);
      }
    }
  }
  return Closure;
}

std::vector<std::string> CompileServer::getDependents(
    const std::string &Unit) const {
  std::set<std::string> Closure = dependentClosure(Unit);
  return {Closure.begin(), Closure.end()};
}

void CompileServer::dirtyProgramsOf(const std::string &Unit) {
  for (auto &[Name, Program] : Programs)
    for (const std::string &Member : Program.Units)
      if (Member == Unit) {
        Program.Dirty = true;
        break;
      }
}

void CompileServer::invalidate(const std::string &Unit) {
  for (const std::string &Name : dependentClosure(Unit)) {
    auto It = Units.find(Name);
    if (It != Units.end())
      It->second.Dirty = true;
    // Latch program dirtiness now: the unit's Dirty flag clears as soon
    // as any recompile touches it, even one targeting another program.
    dirtyProgramsOf(Name);
  }
}

void CompileServer::recordFailure(UnitFailure Failure) {
  Failures.push_back(std::move(Failure));
}

bool CompileServer::compileUnit(const std::string &Name, UnitState &Unit) {
  ++Unit.Attempts;
  FaultSession Session(Options.Pipeline.Faults, Name, Unit.Attempts);
  UnitFailure Failure{Name, "compile", "", "", Unit.Attempts};
  try {
    CompilationResult Compiled =
        compileMiniC(Unit.Source, Name, /*RequireMain=*/false, &Session);
    if (Compiled.Ok) {
      Unit.M = std::move(Compiled.M);
      Unit.Defs.clear();
      Unit.Externs.clear();
      for (const Function &F : Unit.M.Funcs)
        (F.IsExternal ? Unit.Externs : Unit.Defs).insert(F.Name);
      Unit.Compiled = true;
      Unit.Dirty = false;
      Unit.Failed = false;
      return true;
    }
    Failure.Reason = "diagnostic";
    Failure.Detail = Compiled.Errors;
  } catch (const FaultInjectedError &E) {
    Failure.Reason = "fault-injected";
    Failure.Detail = E.what();
  } catch (const std::bad_alloc &) {
    Failure.Reason = "oom";
    Failure.Detail = "allocation failure";
  } catch (const std::exception &E) {
    Failure.Reason = "exception";
    Failure.Detail = E.what();
  }
  // The unit stays dirty: the next recompile retries it, so a transient
  // fault (rule with an attempt bound) recovers by itself.
  Unit.Failed = true;
  recordFailure(std::move(Failure));
  return false;
}

RecompileStats CompileServer::recompile(const std::string &Target,
                                        std::string *Error) {
  RecompileStats Stats;
  std::vector<std::string> Selected;
  if (Target == "*") {
    Selected = ProgramOrder;
  } else if (Programs.count(Target)) {
    Selected.push_back(Target);
  } else {
    if (Error)
      *Error = "unknown program '" + Target + "'";
    return Stats;
  }
  if (Error)
    Error->clear();

  // Pass 1: frontend-compile every dirty unit of every dirty selected
  // program, once each (the touched-unit set). Programs whose units all
  // compiled get a (linked) module and join the batch.
  std::set<std::string> Touched;
  std::vector<BatchJob> Jobs;
  std::vector<std::string> JobPrograms;
  for (const std::string &Name : Selected) {
    ProgramState &Program = Programs[Name];
    if (!Program.Dirty) {
      ++Stats.CleanPrograms;
      continue;
    }
    bool UnitsOk = true;
    std::vector<Module> Members;
    for (const std::string &UnitName : Program.Units) {
      auto It = Units.find(UnitName);
      if (It == Units.end()) {
        recordFailure({Name, "compile", "missing-unit",
                       "program references unknown unit '" + UnitName + "'",
                       1});
        UnitsOk = false;
        break;
      }
      UnitState &Unit = It->second;
      if (Unit.Dirty || !Unit.Compiled) {
        if (!Touched.count(UnitName)) {
          Touched.insert(UnitName);
          compileUnit(UnitName, Unit);
        }
        if (!Unit.Compiled || Unit.Failed) {
          UnitsOk = false;
          break;
        }
      }
      Members.push_back(Unit.M);
    }
    if (!UnitsOk) {
      ++Stats.FailedPrograms;
      continue; // stays dirty; retried next recompile
    }

    BatchJob Job;
    Job.Name = Name;
    Job.Inputs = Program.Inputs;
    Job.Options = Options.Pipeline;
    Job.HasModule = true;
    if (Members.size() == 1) {
      // Single-unit programs skip the linker: link([M]) would rename
      // string globals and re-index site ids, breaking bit-identity with
      // a plain runPipeline(Source) of the same unit.
      Job.PrecompiledModule = std::move(Members.front());
      Job.PrecompiledModule.Name = Name;
    } else {
      LinkResult Linked = linkModules(std::move(Members), Name);
      if (!Linked.Ok) {
        recordFailure({Name, "link", "diagnostic", Linked.Error, 1});
        ++Stats.FailedPrograms;
        continue; // stays dirty
      }
      Job.PrecompiledModule = std::move(Linked.M);
    }
    Jobs.push_back(std::move(Job));
    JobPrograms.push_back(Name);
  }

  // Pass 2: run every rebuilt program's pipeline as one batch over the
  // server's cache. Job order is program-definition order, so results
  // are independent of the thread count.
  if (!Jobs.empty()) {
    BatchOptions Batch;
    Batch.Jobs = Options.Jobs;
    Batch.ExternalCache = &Cache;
    BatchResult Result = runBatchPipeline(Jobs, Batch);
    for (size_t I = 0; I != Jobs.size(); ++I) {
      ProgramState &Program = Programs[JobPrograms[I]];
      if (Result.Results[I].Ok) {
        Program.Result = std::move(Result.Results[I]);
        Program.HasResult = true;
        Program.Dirty = false;
        ++Stats.RecompiledPrograms;
      } else {
        // Quarantined: keep the last good result queryable, stay dirty.
        ++Stats.FailedPrograms;
      }
    }
    for (UnitFailure &F : Result.Failures)
      recordFailure(std::move(F));
  }

  Stats.TouchedUnits = Touched.size();
  Stats.TouchedUnitNames.assign(Touched.begin(), Touched.end());
  return Stats;
}

const PipelineResult *CompileServer::getResult(
    const std::string &Program) const {
  auto It = Programs.find(Program);
  if (It == Programs.end() || !It->second.HasResult)
    return nullptr;
  return &It->second.Result;
}

//===- opt/PassManager.cpp -----------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/PassManager.h"

#include "opt/ConstantFolding.h"
#include "opt/CopyPropagation.h"
#include "opt/DeadCodeElimination.h"
#include "opt/JumpOptimization.h"
#include "opt/LoopInvariantCodeMotion.h"
#include "opt/TailRecursionElimination.h"
#include "support/CommandLine.h"
#include "support/Stopwatch.h"

using namespace impact;

namespace {

/// Sweeps of the pass sequence per function: each pass can expose work
/// for the others, so the sequence repeats until nothing changes or this
/// many sweeps have run.
constexpr unsigned kIterationLimit = 4;

/// Runs one pass, charging its wall time and effect to \p Timing.
template <typename PassFn>
bool runTimed(PassTiming *Timing, Function &F, PassFn Pass) {
  if (!Timing)
    return Pass(F);
  Stopwatch W;
  bool Changed = Pass(F);
  Timing->Seconds += W.seconds();
  Timing->Invocations += 1;
  Timing->Changes += Changed ? 1 : 0;
  return Changed;
}

/// Spec-name table shared by parseOptPasses and renderOptPasses: the two
/// must stay inverses of each other.
struct PassFlag {
  const char *Name;
  bool OptOptions::*Flag;
};
constexpr PassFlag Passes[] = {
    {"fold", &OptOptions::ConstantFolding},
    {"jump", &OptOptions::JumpOptimization},
    {"copy", &OptOptions::CopyPropagation},
    {"dce", &OptOptions::DeadCodeElimination},
    {"tre", &OptOptions::TailRecursionElimination},
    {"licm", &OptOptions::LoopInvariantCodeMotion},
};

} // namespace

bool impact::parseOptPasses(std::string_view Spec, OptOptions &Out,
                            std::string *Error) {
  std::vector<std::string_view> Names;
  for (const PassFlag &P : Passes)
    Names.push_back(P.Name);
  std::vector<bool> Selected;
  std::string_view Unknown;
  if (!cli::parseSelection(Spec, Names, Selected, Unknown)) {
    if (Error) {
      *Error = "unknown optimization pass '" + std::string(Unknown) +
               "'; valid: all";
      for (std::string_view Name : Names)
        *Error += ", " + std::string(Name);
    }
    return false;
  }
  for (size_t I = 0; I != Names.size(); ++I)
    Out.*(Passes[I].Flag) = Selected[I];
  return true;
}

std::string impact::renderOptPasses(const OptOptions &Opts) {
  std::string Out;
  for (const PassFlag &P : Passes)
    if (Opts.*(P.Flag)) {
      if (!Out.empty())
        Out += ',';
      Out += P.Name;
    }
  return Out.empty() ? "none" : Out;
}

bool impact::runOptimizationPipeline(Function &F, const OptOptions &Opts,
                                     OptStats *Stats) {
  Stopwatch Total;
  if (Stats)
    Stats->FunctionsVisited += 1;
  bool EverChanged = false;
  for (unsigned Iter = 0; Iter != kIterationLimit; ++Iter) {
    if (Stats) {
      Stats->Iterations += 1;
      Stats->InstrsProcessed += F.size();
    }
    bool Changed = false;
    if (Opts.TailRecursionElimination)
      Changed |= runTimed(Stats ? &Stats->TailRecursionElimination : nullptr,
                          F,
                          [](Function &G) { return runTailRecursionElimination(G); });
    if (Opts.CopyPropagation)
      Changed |= runTimed(Stats ? &Stats->CopyPropagation : nullptr, F,
                          [](Function &G) { return runCopyPropagation(G); });
    // Folding shrinks straight-line code, jump optimization unlinks the
    // arms a folded branch left dead, and LICM hoists from the cleaned
    // loops so DCE can sweep what the motion exposed.
    if (Opts.ConstantFolding)
      Changed |= runTimed(Stats ? &Stats->ConstantFolding : nullptr, F,
                          [](Function &G) { return runConstantFolding(G); });
    if (Opts.JumpOptimization)
      Changed |= runTimed(Stats ? &Stats->JumpOptimization : nullptr, F,
                          [](Function &G) { return runJumpOptimization(G); });
    if (Opts.LoopInvariantCodeMotion)
      Changed |= runTimed(Stats ? &Stats->LoopInvariantCodeMotion : nullptr,
                          F,
                          [](Function &G) {
                            return runLoopInvariantCodeMotion(G);
                          });
    if (Opts.DeadCodeElimination)
      Changed |= runTimed(Stats ? &Stats->DeadCodeElimination : nullptr, F,
                          [](Function &G) { return runDeadCodeElimination(G); });
    EverChanged |= Changed;
    if (!Changed)
      break;
  }
  if (Stats)
    Stats->TotalSeconds += Total.seconds();
  return EverChanged;
}

bool impact::runOptimizationPipeline(Module &M, const OptOptions &Opts,
                                     OptStats *Stats) {
  bool Changed = false;
  for (Function &F : M.Funcs)
    if (!F.IsExternal)
      Changed |= runOptimizationPipeline(F, Opts, Stats);
  return Changed;
}

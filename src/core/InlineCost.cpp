//===- core/InlineCost.cpp -----------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/InlineCost.h"

#include <cassert>
#include <limits>

using namespace impact;

const char *impact::getCostVerdictName(CostVerdict V) {
  switch (V) {
  case CostVerdict::Acceptable:
    return "acceptable";
  case CostVerdict::NotInlinable:
    return "not-inlinable";
  case CostVerdict::OrderViolation:
    return "order-violation";
  case CostVerdict::StackHazard:
    return "stack-hazard";
  case CostVerdict::LowWeight:
    return "low-weight";
  case CostVerdict::BudgetExceeded:
    return "budget-exceeded";
  }
  return "?";
}

CostEstimates CostEstimates::fromModule(const Module &M,
                                        double CodeGrowthFactor) {
  CostEstimates Est;
  Est.FuncSize.reserve(M.Funcs.size());
  Est.StackWords.reserve(M.Funcs.size());
  for (const Function &F : M.Funcs) {
    Est.FuncSize.push_back(F.size());
    Est.StackWords.push_back(F.getActivationWords());
  }
  Est.ProgramSize = M.size();
  Est.ProgramSizeBudget = static_cast<uint64_t>(
      static_cast<double>(Est.ProgramSize) * CodeGrowthFactor);
  return Est;
}

void CostEstimates::applyExpansion(FuncId Caller, FuncId Callee) {
  assert(Caller != Callee && "self expansion is never planned");
  uint64_t CalleeSize = FuncSize[static_cast<size_t>(Callee)];
  FuncSize[static_cast<size_t>(Caller)] += CalleeSize;
  StackWords[static_cast<size_t>(Caller)] +=
      StackWords[static_cast<size_t>(Callee)];
  ProgramSize += CalleeSize;
}

CostResult impact::computeArcCost(const SiteInfo &Site, const CallGraph &G,
                                  const Linearization &L,
                                  const CostEstimates &Est,
                                  const InlineOptions &Options) {
  CostResult Result;

  // Fill the decision numbers up front so every verdict — acceptance or
  // any of the INFINITY hazards — carries the figures it was decided on.
  DecisionNumbers &N = Result.Numbers;
  N.Weight = Site.Weight;
  N.WeightThreshold = Options.MinArcWeight;
  N.ProgramSize = Est.ProgramSize;
  N.ProgramSizeBudget = Est.ProgramSizeBudget;
  N.StackBound = Options.StackBound;

  auto Reject = [&Result](CostVerdict V) {
    Result.Verdict = V;
    Result.Cost = std::numeric_limits<double>::infinity();
    return Result;
  };

  if (Site.Class == SiteClass::External || Site.Class == SiteClass::Pointer)
    return Reject(CostVerdict::NotInlinable);

  FuncId Caller = Site.Caller;
  FuncId Callee = Site.Callee;
  assert(Callee != kNoFunc && "direct site without callee");

  N.CalleeSize = Est.FuncSize[static_cast<size_t>(Callee)];
  N.CalleeStackWords = Est.StackWords[static_cast<size_t>(Callee)];
  N.CallerRecursive = G.isRecursive(Caller);

  // Linear-order constraint (§3.4): callee must precede caller. This also
  // refuses self arcs and one direction of every cycle.
  if (!L.precedes(Callee, Caller))
    return Reject(CostVerdict::OrderViolation);

  // Stack explosion hazard (§2.3.2), using the *current* stack estimate,
  // which grows as the callee absorbs other functions.
  if (N.CallerRecursive && N.CalleeStackWords > Options.StackBound)
    return Reject(CostVerdict::StackHazard);

  // Weight threshold.
  if (Site.Weight < Options.MinArcWeight)
    return Reject(CostVerdict::LowWeight);

  // Code explosion hazard (§2.3.1).
  if (Est.ProgramSize + N.CalleeSize > Est.ProgramSizeBudget)
    return Reject(CostVerdict::BudgetExceeded);

  Result.Verdict = CostVerdict::Acceptable;
  Result.Cost = static_cast<double>(N.CalleeSize);
  return Result;
}

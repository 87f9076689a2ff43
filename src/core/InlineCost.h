//===- core/InlineCost.h - The cost function (§2.3.3) --------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's cost function, faithfully including its INFINITY hazards:
///
///   cost(G, arc Ai) =
///     if (caller is recursive and control_stack_usage(Ai) > BOUND)
///       INFINITY
///     else if (weight(Ai) < THRESHOLD)  INFINITY
///     else if (program size would exceed the budget)  INFINITY
///     else  current code size of the callee
///
/// The benefit term (saved call/return overhead) is dropped exactly as the
/// paper argues: with register-save and control-transfer costs roughly
/// equal at every site, the term is constant and cannot change the arc
/// ordering. Function code sizes and stack usages are *estimates updated
/// after each accepted expansion*; the planner owns those running tallies
/// and passes them in.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_CORE_INLINECOST_H
#define IMPACT_CORE_INLINECOST_H

#include "callgraph/CallGraph.h"
#include "core/CallSiteClassifier.h"
#include "core/InlineOptions.h"
#include "core/Linearizer.h"

#include <cstdint>
#include <vector>

namespace impact {

/// Why the cost function returned INFINITY (or that it did not).
enum class CostVerdict {
  /// Finite cost: the arc may be expanded.
  Acceptable,
  /// Not a direct user-function arc (external/pointer site).
  NotInlinable,
  /// Callee does not precede the caller in the linear sequence.
  OrderViolation,
  /// Caller and callee share a cycle (self/mutual recursion).
  RecursiveCycle,
  /// Caller recursive and callee stack usage above StackBound.
  StackHazard,
  /// Arc weight below MinArcWeight.
  LowWeight,
  /// Expansion would push the program past the size budget.
  BudgetExceeded,
};

const char *getCostVerdictName(CostVerdict V);

/// Running estimates the planner updates after each accepted expansion
/// (§3.4: "the code size of each function body must be re-evaluated as new
/// function calls are considered for expansion").
struct CostEstimates {
  /// Estimated IL size per function (indexed by FuncId).
  std::vector<uint64_t> FuncSize;
  /// Estimated activation words per function (indexed by FuncId).
  std::vector<int64_t> StackWords;
  /// Estimated whole-program IL size.
  uint64_t ProgramSize = 0;
  /// Hard ceiling on ProgramSize.
  uint64_t ProgramSizeBudget = 0;

  /// Seeds the estimates from the module's current state.
  static CostEstimates fromModule(const Module &M, double CodeGrowthFactor);

  /// Applies the effect of inlining \p Callee into \p Caller once.
  void applyExpansion(FuncId Caller, FuncId Callee);
};

/// The concrete numbers the cost function compared when it ruled on an
/// arc — the payload of the decision trace (§3.4). Every figure is the
/// *estimate at decision time*: sizes and stack words grow as earlier
/// acceptances are applied, so two sites with the same callee can
/// legitimately carry different numbers.
struct DecisionNumbers {
  /// Arc weight vs. the weight threshold.
  double Weight = 0.0;
  double WeightThreshold = 0.0;
  /// Callee size estimate (the IL an expansion adds).
  uint64_t CalleeSize = 0;
  /// Whole-program size estimate before this arc vs. the hard budget; an
  /// accepted arc grows the program to ProgramSize + CalleeSize.
  uint64_t ProgramSize = 0;
  uint64_t ProgramSizeBudget = 0;
  /// Callee activation estimate vs. the recursion stack bound.
  int64_t CalleeStackWords = 0;
  int64_t StackBound = 0;
  /// Whether the caller sits on a recursion cycle (arms the stack hazard).
  bool CallerRecursive = false;

  friend bool operator==(const DecisionNumbers &,
                         const DecisionNumbers &) = default;
};

struct CostResult {
  CostVerdict Verdict = CostVerdict::Acceptable;
  /// The callee's current estimated size when Acceptable; +infinity
  /// otherwise.
  double Cost = 0.0;
  /// What the verdict was decided on.
  DecisionNumbers Numbers;
};

/// Evaluates the cost function for one classified site.
CostResult computeArcCost(const SiteInfo &Site, const CallGraph &G,
                          const Linearization &L, const CostEstimates &Est,
                          const InlineOptions &Options);

} // namespace impact

#endif // IMPACT_CORE_INLINECOST_H

//===- driver/DecisionTrace.cpp ------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/DecisionTrace.h"

#include "driver/Pipeline.h"
#include "driver/Report.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace impact;

namespace {

std::string funcName(const Module &M, FuncId Id) {
  return Id == kNoFunc ? std::string("<indirect>") : M.getFunction(Id).Name;
}

std::string weightStr(double W) { return formatDouble(W, 2); }

} // namespace

std::string impact::formatDecisionReason(const PlannedSite &P,
                                         const Module &M) {
  const DecisionNumbers &N = P.Numbers;
  switch (P.Verdict) {
  case CostVerdict::Acceptable:
    return "weight " + weightStr(N.Weight) + " >= threshold " +
           weightStr(N.WeightThreshold) + "; program " +
           std::to_string(N.ProgramSize) + " + callee " +
           std::to_string(N.CalleeSize) + " <= budget " +
           std::to_string(N.ProgramSizeBudget);
  case CostVerdict::NotInlinable:
    if (P.Callee == kNoFunc)
      return "indirect call through pointer; target unknown at compile time";
    return "callee '" + funcName(M, P.Callee) + "' is external (no body)";
  case CostVerdict::OrderViolation:
    return "callee '" + funcName(M, P.Callee) +
           "' does not precede caller '" + funcName(M, P.Caller) +
           "' in the linear order";
  case CostVerdict::RecursiveCycle:
    return "caller '" + funcName(M, P.Caller) + "' and callee '" +
           funcName(M, P.Callee) + "' share a recursion cycle";
  case CostVerdict::StackHazard:
    return "caller recursive and callee stack " +
           std::to_string(N.CalleeStackWords) + " words > bound " +
           std::to_string(N.StackBound);
  case CostVerdict::LowWeight:
    return "weight " + weightStr(N.Weight) + " < threshold " +
           weightStr(N.WeightThreshold);
  case CostVerdict::BudgetExceeded:
    return "program " + std::to_string(N.ProgramSize) + " + callee " +
           std::to_string(N.CalleeSize) + " > budget " +
           std::to_string(N.ProgramSizeBudget);
  }
  return "?";
}

std::string impact::renderDecisionTraceTable(const InlinePlan &Plan,
                                             const Module &M) {
  TableWriter Table({"site", "caller", "callee", "weight", "status",
                     "verdict", "reason"});
  for (const PlannedSite &P : Plan.Sites)
    Table.addRow({std::to_string(P.SiteId), funcName(M, P.Caller),
                  funcName(M, P.Callee), weightStr(P.Weight),
                  getArcStatusName(P.Status), getCostVerdictName(P.Verdict),
                  formatDecisionReason(P, M)});
  return Table.render();
}

std::string impact::renderDecisionTraceJson(const InlinePlan &Plan,
                                            const Module &M,
                                            std::string_view Program) {
  std::string Out;
  for (const PlannedSite &P : Plan.Sites) {
    const DecisionNumbers &N = P.Numbers;
    Out += "{";
    if (!Program.empty())
      Out += "\"program\":\"" + jsonEscape(Program) + "\",";
    Out += "\"site\":" + std::to_string(P.SiteId);
    Out += ",\"caller\":\"" + jsonEscape(funcName(M, P.Caller)) + "\"";
    Out += ",\"callee\":\"" + jsonEscape(funcName(M, P.Callee)) + "\"";
    Out += ",\"weight\":" + weightStr(P.Weight);
    Out += ",\"status\":\"" + std::string(getArcStatusName(P.Status)) + "\"";
    Out +=
        ",\"verdict\":\"" + std::string(getCostVerdictName(P.Verdict)) + "\"";
    Out += ",\"weight_threshold\":" + weightStr(N.WeightThreshold);
    Out += ",\"callee_size\":" + std::to_string(N.CalleeSize);
    Out += ",\"program_size\":" + std::to_string(N.ProgramSize);
    Out += ",\"program_size_budget\":" + std::to_string(N.ProgramSizeBudget);
    Out += ",\"callee_stack_words\":" + std::to_string(N.CalleeStackWords);
    Out += ",\"stack_bound\":" + std::to_string(N.StackBound);
    Out += ",\"caller_recursive\":";
    Out += N.CallerRecursive ? "true" : "false";
    Out += ",\"reason\":\"" + jsonEscape(formatDecisionReason(P, M)) + "\"}\n";
  }
  return Out;
}

std::string impact::renderUnitFailureJson(const UnitFailure &F,
                                          std::string_view Program) {
  std::string Out = "{";
  if (!Program.empty())
    Out += "\"program\":\"" + jsonEscape(Program) + "\",";
  else
    Out += "\"program\":\"" + jsonEscape(F.Unit) + "\",";
  Out += "\"failed\":true";
  Out += ",\"stage\":\"" + jsonEscape(F.Stage) + "\"";
  Out += ",\"reason\":\"" + jsonEscape(F.Reason) + "\"";
  Out += ",\"attempts\":" + std::to_string(F.Attempts);
  Out += ",\"detail\":\"" + jsonEscape(F.Detail) + "\"}\n";
  return Out;
}

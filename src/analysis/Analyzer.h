//===- analysis/Analyzer.h - impact-lint: IL and inliner-invariant audit -------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static analyzer ("impact-lint") built on the dataflow framework
/// (analysis/Dataflow.h). Two entry points:
///
///  - analyzeModule: intraprocedural IL hygiene over every function body —
///    use-of-maybe-uninitialized register (reaching definitions),
///    unreachable blocks (CFG reachability), and dead stores (liveness).
///    These are *warn* findings: the interpreter zero-initializes the
///    register file, so an uninitialized read is defined (if suspicious)
///    behavior, and legal MiniC programs produce all three shapes.
///
///  - analyzeInlineInvariants: module-level audit of what the inline
///    expansion pass claims it did, checked against what actually holds —
///    every expanded site was classified safe, the post-expansion call
///    graph is arc-consistent (no dangling site ids, arity matches), the
///    redistributed weights conserve call volume (incoming arc weight +
///    re-entry credit equals the node weight, within tolerance), and the
///    expansion respected the linear order. These are *error* findings:
///    any one of them means the inliner broke its own contract, and the
///    driver quarantines the unit (UnitFailure stage "analyze").
///
/// The analyzer never mutates the module, so enabling it cannot change
/// survivor outputs, metrics, or plans — only add findings.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_ANALYSIS_ANALYZER_H
#define IMPACT_ANALYSIS_ANALYZER_H

#include "analysis/Dataflow.h"
#include "core/InlinePass.h"

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace impact {

enum class Severity { Warn, Error };

/// "warn" / "error".
const char *getSeverityName(Severity S);

/// Rule names, as spelled in --analyze= specs and finding records.
inline constexpr const char *kRuleUninitRead = "uninit-read";
inline constexpr const char *kRuleUnreachableBlock = "unreachable-block";
inline constexpr const char *kRuleDeadStore = "dead-store";
inline constexpr const char *kRuleAuditSafeExpansion = "audit-safe-expansion";
inline constexpr const char *kRuleAuditCallGraph = "audit-callgraph";
inline constexpr const char *kRuleAuditWeightConservation =
    "audit-weight-conservation";
inline constexpr const char *kRuleAuditLinearization = "audit-linearization";
inline constexpr const char *kRuleGuaranteedTrap = "guaranteed-trap";
inline constexpr const char *kRuleRangeContradiction = "range-contradiction";

/// One analyzer finding. Block/Instr are -1 for function- or module-level
/// findings; Function is empty only for findings about no function at all.
struct Finding {
  std::string Function;
  BlockId Block = -1;
  int Instr = -1;
  Severity Sev = Severity::Warn;
  std::string Rule;
  std::string Message;

  /// "warn[dead-store] main bb2#3: ..." — one line, no trailing newline.
  std::string render() const;

  friend bool operator==(const Finding &, const Finding &) = default;
};

/// Rule selection plus audit tolerances.
struct AnalysisOptions {
  bool UninitRead = true;
  bool UnreachableBlock = true;
  bool DeadStore = true;
  bool AuditSafeExpansion = true;
  bool AuditCallGraph = true;
  bool AuditWeightConservation = true;
  bool AuditLinearization = true;
  /// Range-backed rules (analysis/RangeAnalysis.h). guaranteed-trap is an
  /// *error*: an instruction in a range-reachable block whose operand
  /// intervals prove it traps on every execution (divisor exactly zero,
  /// the one INT64_MIN/-1 overflow, or an address provably outside every
  /// valid segment). range-contradiction is a *warn*: a block the CFG
  /// reaches but range propagation proves never executes (contradictory
  /// branch conditions, or a function whose formal summary is bottom).
  bool GuaranteedTrap = true;
  bool RangeContradiction = true;
  /// Relative tolerance for the weight-conservation comparison (weights
  /// are double averages; redistribution reassociates their sums).
  double WeightTolerance = 1e-6;
};

/// Parses an --analyze= rule spec into \p Out (cli::parseSelection's
/// grammar: "dead-store" is exactly that rule, "all,-dead-store" all but
/// it). Unknown names fail with \p Error listing the valid rules (plus a
/// did-you-mean suggestion when a known name is an edit or two away) and
/// leave \p Out untouched.
bool parseAnalysisRules(std::string_view Spec, AnalysisOptions &Out,
                        std::string *Error = nullptr);

/// The full rule table — name, severity, one-line description — as the
/// --analyze=help listing. Newline-terminated.
std::string renderAnalysisRuleTable();

/// The findings of one analyzed unit, in deterministic order.
struct AnalysisReport {
  std::vector<Finding> Findings;

  size_t countSeverity(Severity S) const;
  bool hasErrors() const { return countSeverity(Severity::Error) != 0; }

  /// Finding counts per rule name, sorted by rule name; rules with no
  /// findings are omitted. Feeds the per-rule stderr footers.
  std::vector<std::pair<std::string, size_t>> countByRule() const;

  /// Sorts findings by (function, block, instr, rule, message) so reports
  /// are reproducible regardless of rule evaluation order.
  void sortFindings();

  /// One render()ed line per finding, newline-terminated.
  std::string renderText() const;
  /// One JSON object per finding ({"program":...,"severity":...,...}),
  /// newline-terminated — the --trace-out JSONL form.
  std::string renderJsonl(std::string_view Program) const;

  friend bool operator==(const AnalysisReport &,
                         const AnalysisReport &) = default;
};

/// Runs the enabled intraprocedural rules over every defined function of
/// \p M. Never throws on verifier-accepted input, including fuzz
/// survivors.
AnalysisReport analyzeModule(const Module &M, const AnalysisOptions &Options);

/// Appends the enabled inliner-invariant audits to \p Report. \p M is the
/// final (post-expansion, post-cleanup) module; \p Inline is what the
/// inline pass reported; \p PreProfile is the profile that drove it.
void analyzeInlineInvariants(const Module &M, const InlineResult &Inline,
                             const ProfileData &PreProfile,
                             const AnalysisOptions &Options,
                             AnalysisReport &Report);

} // namespace impact

#endif // IMPACT_ANALYSIS_ANALYZER_H

//===- analysis/RangeAnalysis.h - Interprocedural value ranges --------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interval range analysis over the IL, plus bottom-up interprocedural
/// summaries computed in call-graph SCC order.
///
/// The lattice element is a closed signed-64 interval [Lo, Hi]; bottom is
/// any Lo > Hi (canonically [INT64_MAX, INT64_MIN]) and means "no value
/// reaches here". Transfer functions are overflow-aware: any arithmetic
/// whose exact bound leaves int64 goes to top rather than wrapping, so a
/// proven interval is a true superset of the wrapping semantics' result
/// set only when the operation provably does not wrap — which is exactly
/// what the transfer checks. Per-function fixpoints run on the generic
/// forward solver in DataflowSolver.h with widening at LoopInfo headers
/// (after a short delay so small loops converge exactly) followed by two
/// narrowing sweeps in reverse post-order.
///
/// Interprocedural facts (computeModuleRangeFacts) are three monotone
/// phases over Tarjan SCCs of the direct call graph:
///   A. bottom-up return-range + purity summaries with formals at top;
///   B. top-down formal-argument propagation from main over direct sites
///      (defeated wholesale when the module contains any CallPtr — a
///      forged function pointer can enter anything with anything);
///   C. a final bottom-up pass that recomputes returns, purity, and
///      per-call-site argument ranges with the phase-B formals in place.
/// A non-recursive function (a one-member SCC that does not call itself)
/// is evaluated once per bottom-up phase: its evaluation reads no summary
/// of its own component, so a second round would repeat the first. Its
/// phase-C evaluation is final and records its call-site facts; recursive
/// components iterate to a fixpoint and then get one recording
/// evaluation each.
///
/// Every emitted fact is a first-class artifact: RangeFactChecker hooks
/// into both execution engines (interp/Interpreter.cpp and vm/Vm.cpp via
/// RunOptions::FactCheck) and asserts at runtime that no proven fact is
/// ever violated. The differential test tier treats any violation as a
/// hard failure, making dynamic execution the ground truth for the
/// static analysis exactly as the walker is for the VM.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_ANALYSIS_RANGEANALYSIS_H
#define IMPACT_ANALYSIS_RANGEANALYSIS_H

#include "analysis/Cfg.h"
#include "ir/Ir.h"

#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

namespace impact {

//===----------------------------------------------------------------------===//
// Interval lattice
//===----------------------------------------------------------------------===//

/// A closed interval of signed 64-bit values. Lo > Hi encodes bottom.
struct Interval {
  int64_t Lo = std::numeric_limits<int64_t>::min();
  int64_t Hi = std::numeric_limits<int64_t>::max();

  static Interval top() { return Interval(); }
  static Interval bottom() {
    return Interval{std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()};
  }
  static Interval constant(int64_t V) { return Interval{V, V}; }
  /// Canonicalizes: any empty range collapses to the canonical bottom.
  static Interval make(int64_t L, int64_t H) {
    return L <= H ? Interval{L, H} : bottom();
  }

  bool isBottom() const { return Lo > Hi; }
  bool isTop() const {
    return Lo == std::numeric_limits<int64_t>::min() &&
           Hi == std::numeric_limits<int64_t>::max();
  }
  bool isConstant() const { return Lo == Hi; }
  bool contains(int64_t V) const { return Lo <= V && V <= Hi; }
  bool isNonNegative() const { return !isBottom() && Lo >= 0; }

  friend bool operator==(const Interval &A, const Interval &B) {
    if (A.isBottom() && B.isBottom())
      return true;
    return A.Lo == B.Lo && A.Hi == B.Hi;
  }
  friend bool operator!=(const Interval &A, const Interval &B) {
    return !(A == B);
  }
};

/// Least upper bound (interval hull).
Interval join(Interval A, Interval B);
/// Greatest lower bound (intersection).
Interval meet(Interval A, Interval B);
/// Classic interval widening: any bound that grew jumps to infinity.
Interval widen(Interval Old, Interval New);

/// Renders "[lo,hi]" with "-inf"/"+inf" at the extremes, "bot" for bottom.
std::string renderInterval(Interval I);

// Transfer functions. All are sound for the engines' semantics: wrapping
// Add/Sub/Mul/Neg go to top when the exact bound would leave int64; Div and
// Rem assume the operation did not trap (a trapping instance produces no
// value, so the result interval need not cover it).
Interval rangeAdd(Interval A, Interval B);
Interval rangeSub(Interval A, Interval B);
Interval rangeMul(Interval A, Interval B);
Interval rangeDiv(Interval A, Interval B);
Interval rangeRem(Interval A, Interval B);
Interval rangeShl(Interval A, Interval B);
Interval rangeShr(Interval A, Interval B);
Interval rangeAnd(Interval A, Interval B);
Interval rangeOr(Interval A, Interval B);
Interval rangeXor(Interval A, Interval B);
Interval rangeNeg(Interval A);
Interval rangeNot(Interval A);
/// Comparison result: [1,1]/[0,0] when provable, else [0,1].
Interval rangeCmp(Opcode Op, Interval A, Interval B);

/// True when a Div/Rem with these operand intervals might trap (divisor may
/// be zero, or INT64_MIN / -1 overflow is possible).
bool divMayTrap(Interval Dividend, Interval Divisor);

//===----------------------------------------------------------------------===//
// Interprocedural summaries
//===----------------------------------------------------------------------===//

/// Facts proven about one function, valid for the exact module they were
/// computed on.
struct FunctionRangeSummary {
  /// Proven formal-parameter ranges (size NumParams), the join over every
  /// way the function can be entered. Empty means no fact (externals, or a
  /// module with forged function pointers). A bottom entry proves the
  /// function is never entered at all.
  std::vector<Interval> Params;
  /// Proven return-value range. Bottom proves the function never returns.
  Interval Ret = Interval::top();
  /// True for defined (non-external, non-eliminated, non-empty) functions;
  /// the purity bits below are only claims when this is set.
  bool HasSummary = false;
  /// May read a global-segment word (directly or transitively).
  bool ReadsGlobals = true;
  /// May write a global-segment word (directly or transitively).
  bool WritesGlobals = true;
  /// May trap (division hazard, unproven memory access, any call — a call
  /// can always die of control-stack explosion or reach code that traps).
  bool MayTrap = true;
};

/// The complete fact artifact for one module.
struct ModuleRangeFacts {
  /// Indexed by FuncId.
  std::vector<FunctionRangeSummary> Funcs;
  /// Indexed by SiteId: proven argument ranges at each direct or indirect
  /// call site (parallel to the site's Args). Only meaningful where
  /// SiteHasFact is set.
  std::vector<std::vector<Interval>> SiteArgs;
  std::vector<char> SiteHasFact;
  /// The module contains at least one CallPtr; formal-parameter facts are
  /// then suppressed (a forged pointer can call anything with anything).
  bool HasCallPtr = false;
  /// Global segment [GlobalLo, GlobalHi) — every address in it is a valid
  /// word; addresses below kGlobalBase or in [GlobalHi, kStackBase) trap.
  int64_t GlobalLo = 0;
  int64_t GlobalHi = 0;
};

class RangeAnalysis;

/// Receives each defined function's final per-function analysis: the one
/// phase C builds with the final formals and callee summaries in place,
/// identical to a RangeAnalysis constructed afterwards against the
/// returned facts. Called once per defined function, callees before
/// callers; the references are valid only during the call.
using RangeVisitor =
    std::function<void(const Function &, const Cfg &, const RangeAnalysis &)>;

/// Computes the full interprocedural fact set for \p M (phases A/B/C
/// above), handing each defined function's final analysis to \p Visit.
ModuleRangeFacts computeModuleRangeFacts(const Module &M,
                                         const RangeVisitor &Visit = {});

//===----------------------------------------------------------------------===//
// Per-function analysis
//===----------------------------------------------------------------------===//

/// Fixpoint interval analysis of one function of \p M against the facts
/// gathered so far for \p M (formal ranges and callee return summaries).
/// Construction runs the solve; queries are cheap afterwards. The register
/// environment is a plain vector indexed by register (entry state: formals
/// from the summary or top, every other register exactly 0 — activations
/// zero-initialize). \p G, \p Headers, \p M and \p Facts must outlive
/// the analysis.
class RangeAnalysis {
public:
  using Env = std::vector<Interval>;

  /// \p Headers is \p F's widening-header mask (computeWideningHeaders).
  RangeAnalysis(const Function &F, const Cfg &G,
                const std::vector<char> &Headers, const Module &M,
                const ModuleRangeFacts &Facts);

  /// False when range propagation proves the block can never execute
  /// (stronger than CFG reachability: contradictory branch conditions and
  /// never-entered functions also unreach blocks).
  bool isReachable(BlockId B) const {
    return B >= 0 && static_cast<size_t>(B) < Reached.size() &&
           Reached[static_cast<size_t>(B)];
  }

  /// Register state on entry to \p B: one interval per register when
  /// isReachable(B), empty otherwise — whether the solver never reached
  /// the block or narrowing later proved it dead. Check isReachable first.
  const Env &blockIn(BlockId B) const { return In[static_cast<size_t>(B)]; }

  /// Interval a register holds in \p E (top for out-of-range registers).
  static Interval get(const Env &E, Reg R) {
    if (R < 0 || static_cast<size_t>(R) >= E.size())
      return Interval::top();
    return E[static_cast<size_t>(R)];
  }

  /// Interval \p I's destination will hold given pre-instruction state
  /// \p E. Top for instructions without a destination.
  Interval eval(const Instr &I, const Env &E) const;

  /// Advances \p E across \p I.
  void step(const Instr &I, Env &E) const;

private:
  friend struct RangeDomain;
  void solve();

  /// Edge refinement: sharpens \p E along the From->To branch using the
  /// terminator (and its defining comparison). Returns false when the
  /// edge is provably never taken.
  bool refineEdge(BlockId From, BlockId To, Env &E) const;

  const Function &F;
  const Cfg &G;
  const Module &M;
  const ModuleRangeFacts &Facts;
  const std::vector<char> &IsHeader;
  std::vector<Env> In;
  std::vector<char> Reached;
};

/// One byte per block of \p F, 1 for a loop header: the blocks where
/// RangeAnalysis widens after fewer changed joins. computeModuleRangeFacts
/// builds it, and each function's Cfg, once per fact computation.
std::vector<char> computeWideningHeaders(const Function &F);

//===----------------------------------------------------------------------===//
// Dynamic cross-check
//===----------------------------------------------------------------------===//

/// Asserts every emitted static fact against a real execution. Installed
/// via RunOptions::FactCheck; both engines drive the same hook set, so a
/// fact that holds in the walker but not the VM (or vice versa) still
/// surfaces. The checker never alters execution — it only records.
///
/// Checked facts: formal ranges at entry, argument ranges at each call
/// site, return ranges at each return, no-global-read / no-global-write /
/// no-trap purity bits for every activation on the shadow stack.
class RangeFactChecker {
public:
  RangeFactChecker(const Module &M, ModuleRangeFacts Facts);

  // --- engine hooks -------------------------------------------------------
  /// A user function activation began; \p Args are its first \p N registers.
  void onEnter(FuncId F, const int64_t *Args, size_t N);
  /// Argument \p Idx of call site \p Site is about to be passed as \p V.
  void onSiteArg(uint32_t Site, size_t Idx, int64_t V);
  /// The current activation of \p F returns \p V.
  void onRet(FuncId F, int64_t V);
  /// A successful (non-trapping) IL Load / Store touched \p Addr.
  void onLoad(int64_t Addr);
  void onStore(int64_t Addr);
  /// The run ended in a trap (step-limit halts are not traps).
  void onTrap(const std::string &Message);
  /// The run finished; resets per-run state so the checker can be reused.
  void onRunEnd();

  // --- results ------------------------------------------------------------
  bool ok() const { return Violations.empty(); }
  uint64_t getChecksPerformed() const { return Checks; }
  const std::vector<std::string> &getViolations() const { return Violations; }

private:
  struct ShadowFrame {
    FuncId Func;
    bool NoRead;
    bool NoWrite;
    bool NoTrap;
  };

  void violate(std::string Message);
  bool inGlobals(int64_t Addr) const {
    return Addr >= Facts.GlobalLo && Addr < Facts.GlobalHi;
  }

  ModuleRangeFacts Facts;
  std::vector<std::string> FuncNames;
  std::vector<ShadowFrame> Stack;
  size_t NoReadDepth = 0;
  size_t NoWriteDepth = 0;
  size_t NoTrapDepth = 0;
  uint64_t Checks = 0;
  std::vector<std::string> Violations;
  std::set<std::string> Seen;
};

} // namespace impact

#endif // IMPACT_ANALYSIS_RANGEANALYSIS_H

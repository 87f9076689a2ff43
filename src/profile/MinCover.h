//===- profile/MinCover.h - Minimum-coverage arc instrumentation -------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Knuth/Kirchhoff minimum-coverage profiling: instead of bumping a counter
/// on every executed arc, place probes only on the *co-tree* arcs of a
/// maximum-weight spanning tree of each function's flow graph (augmented
/// with a virtual node Omega feeding the entry block and absorbing returns).
/// Flow conservation — Kirchhoff's current law on execution counts — then
/// determines every tree-arc count, and from those every node count, call
/// site count, and dynamic total, exactly.
///
/// Weights come from the static estimator's loop-depth model, so the arcs
/// left *un*instrumented are exactly the arcs the estimator expects to be
/// hottest: the probes migrate to cold co-tree edges and counter pressure
/// leaves the hot paths entirely.
///
/// The raw measurement contract (identical for both engines, bit-for-bit):
///   - ExecStats::ArcCounts[probe] for every co-tree probe,
///   - ExecStats::Halts: one HaltRecord per activation still live when a
///     run ends abnormally (trap / step limit / exit intrinsic), pinpointing
///     the block each activation halted in and how many of that block's call
///     instructions it completed — this supplies the "pending" term that
///     makes conservation exact even for runs that never return,
///   - InstrCount, ExternalCalls, external FuncEntryCounts, PeakStackWords
///     stay directly measured (they are cheap or needed anyway).
/// Everything else (SiteCounts, internal FuncEntryCounts, ControlTransfers,
/// DynamicCalls, PointerCalls, Returns) is reconstructed by inferCounts().
/// OpcodeCounts are not collected in mincover mode — dropping the per-step
/// histogram bump is the main dispatch-loop saving — and are not part of
/// ProfileData, so the planner never notices.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_PROFILE_MINCOVER_H
#define IMPACT_PROFILE_MINCOVER_H

#include "interp/Interpreter.h"
#include "ir/Ir.h"

#include <cstdint>
#include <string>
#include <vector>

namespace impact {

/// Counter-placement mode for the profiling phase.
enum class InstrumentMode {
  /// Count every arc, site, and opcode directly (the pre-mincover scheme).
  Full,
  /// Probe only spanning-tree-complement arcs; infer the rest.
  MinCover,
};

const char *getInstrumentModeName(InstrumentMode Mode);

/// Strict parse of "full" / "mincover". Returns false and sets \p Error
/// (when non-null) on anything else.
bool parseInstrumentMode(const std::string &Text, InstrumentMode &Out,
                         std::string *Error = nullptr);

/// One arc of a function's augmented flow graph.
struct MinCoverArc {
  enum class Kind : uint8_t {
    /// Omega -> entry block; its count is the function entry count.
    Entry,
    /// Unconditional jump From -> To.
    Jump,
    /// CondBr taken edge From -> Target.
    BrTaken,
    /// CondBr fall-through edge From -> Target2.
    BrNotTaken,
    /// Degenerate cond_br with Target == Target2: one merged arc, bumped
    /// once per execution (mirrors analysis/Cfg's successor dedup).
    BrMerged,
    /// Ret From -> Omega.
    Ret,
  };

  Kind K = Kind::Jump;
  /// Source block, or -1 for the Entry arc (source is Omega).
  BlockId From = -1;
  /// Target block, or -1 for Ret arcs (target is Omega).
  BlockId To = -1;
  /// Global probe index into ExecStats::ArcCounts, or -1 for spanning-tree
  /// arcs (count inferred, never measured).
  int32_t Probe = -1;
};

/// Probe placement for one internal function. All per-block vectors are
/// sized to Blocks.size(); -1 means "no probe here" (tree arc, or the block
/// has no such terminator, or the block is unreachable).
struct MinCoverFuncPlan {
  /// False for external / eliminated / empty functions (no plan).
  bool Instrumented = false;
  /// Every arc of the augmented graph, in deterministic construction order.
  std::vector<MinCoverArc> Arcs;
  /// Probe for the Omega->entry arc, or -1 when it landed in the tree (the
  /// common case: entry is the hottest arc under the loop-depth prior).
  int32_t EntryProbe = -1;
  /// Probe for block b's Jump terminator.
  std::vector<int32_t> JumpProbes;
  /// Probe for block b's CondBr taken edge (also the merged-arc probe for
  /// degenerate cond_br — NotTakenProbes holds -1 in that case).
  std::vector<int32_t> TakenProbes;
  /// Probe for block b's CondBr fall-through edge.
  std::vector<int32_t> NotTakenProbes;
  /// Probe for block b's Ret terminator.
  std::vector<int32_t> RetProbes;
};

/// Whole-module probe plan.
struct MinCoverPlan {
  /// Indexed by FuncId.
  std::vector<MinCoverFuncPlan> Funcs;
  /// Total number of probes; ExecStats::ArcCounts is sized to this.
  uint32_t NumProbes = 0;
  /// Total arcs across all instrumented functions (probed + tree) — the
  /// denominator of the counter-reduction ratio.
  uint64_t TotalArcs = 0;
  /// Module::NextSiteId at plan time (size of the inferred SiteCounts).
  uint32_t NumSites = 0;
  /// Module function count at plan time.
  uint32_t NumFuncs = 0;
};

/// Builds the probe plan: per internal function, a maximum-weight spanning
/// tree (Kruskal over static-estimator loop-depth weights, deterministic
/// tie-break on arc order) of the augmented flow graph; co-tree arcs get
/// consecutive global probe indices. Unreachable blocks contribute no arcs
/// (their counts are zero by definition).
MinCoverPlan buildMinCoverPlan(const Module &M);

/// Solves the flow-conservation system for \p Raw (a mincover-mode
/// ExecStats: ArcCounts + Halts + directly measured fields) and returns a
/// fully populated ExecStats that is bit-identical, on every field
/// ProfileData consumes, to what full instrumentation would have measured.
/// Arithmetic is wrapping u64, matching the counters themselves, so the
/// reconstruction is exact even at wrap-around. OpcodeCounts are left empty.
ExecStats inferCounts(const Module &M, const MinCoverPlan &Plan,
                      const ExecStats &Raw);

} // namespace impact

#endif // IMPACT_PROFILE_MINCOVER_H

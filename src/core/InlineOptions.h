//===- core/InlineOptions.h - Inline expansion knobs ---------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef IMPACT_CORE_INLINEOPTIONS_H
#define IMPACT_CORE_INLINEOPTIONS_H

#include "opt/PassManager.h"

#include <cstdint>

namespace impact {

/// How the linear expansion sequence (§3.3) is chosen.
enum class LinearizationPolicy {
  /// The paper's heuristic: place functions randomly, then stable-sort by
  /// descending node weight (most frequently executed first).
  ProfileSorted,
  /// Random order (ablation baseline).
  Random,
  /// Bottom-up over the condensation: callees before callers wherever the
  /// graph is acyclic (ablation: the "leaf-level functions first" ideal the
  /// paper mentions for tree-shaped graphs).
  BottomUp,
  /// Declaration order (ablation baseline).
  SourceOrder,
};

/// All knobs of the inline expansion procedure. Defaults follow the paper
/// where it states a constant (weight threshold 10) and use conservative
/// engineering values elsewhere.
struct InlineOptions {
  /// Arcs below this expected invocation count are unsafe (§4.2 uses 10).
  double MinArcWeight = 10.0;

  /// Program-size budget: inlining may grow the static IL size to at most
  /// CodeGrowthFactor × the original size (§2.3.1's "upper limit ... as a
  /// function of the original program size"). 1.25 keeps the suite-wide
  /// growth near the paper's ~17% average while the weight-ordered greedy
  /// selection preserves most of the call elimination; the
  /// ablation_limits bench sweeps this knob.
  double CodeGrowthFactor = 1.25;

  /// §2.3.2: expanding a callee whose activation needs more than this many
  /// stack words into a recursive region is a control-stack hazard.
  int64_t StackBound = 2048;

  /// Optional per-callee size cap (0 = none): arcs whose callee body
  /// exceeds this many IL instructions are rejected by the cost function.
  uint64_t MaxCalleeSize = 0;

  LinearizationPolicy Policy = LinearizationPolicy::ProfileSorted;

  /// Run function-level dead code removal after expansion (§2.6).
  bool EliminateDeadFunctions = true;

  /// Worst-case assumption for external functions (§2.5); see
  /// CallGraphOptions::AssumeExternalsCallBack.
  bool AssumeExternalsCallBack = true;

  /// When true, the $$$/### worst-case cycles also count as recursion for
  /// the hazard checks — every I/O-performing function becomes
  /// "recursive" and almost nothing can be expanded. Off by default: the
  /// recursion hazards use real (direct-arc) recursion, while the
  /// worst-case graph still governs dead-function elimination. Exists for
  /// the pessimism ablation.
  bool TreatExternalCyclesAsRecursion = false;

  /// Run the optimization pipeline on functions that received inlined
  /// bodies. The paper measured *without* post-inline optimization (§4.4);
  /// this knob exists for the ablation.
  bool PostInlineOptimize = false;

  /// Pass selection for the post-inline cleanup (meaningful only when
  /// PostInlineOptimize is set). Defaults to the classic quartet; the
  /// table4 ablation lattice layers LICM on top to measure what it
  /// recovers from the inliner's parameter moves and loop-invariant
  /// callee setup.
  OptOptions PostOpt;

  /// Seed for the random placement step of linearization.
  uint64_t RandomSeed = 12345;
};

} // namespace impact

#endif // IMPACT_CORE_INLINEOPTIONS_H

//===- callgraph/CallGraph.h - Weighted call graph ---------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's program representation: a weighted call graph
/// G = (N, E, main). Each node is a function with a weight (expected
/// execution count); each arc is a *static call site* with a unique id and
/// a weight (expected invocation count). Two pseudo nodes model missing
/// information exactly as in §3.2:
///
///   $$$ (External) — the summarized effect of external functions. A
///   function that calls any external function gets one arc to $$$; $$$ in
///   turn has one arc to every user function (worst case: an external
///   function may call anything).
///
///   ### (Pointer) — the summarized effect of calls through pointers. Every
///   call-through-pointer site gets an arc to ###; ### has arcs to every
///   address-taken function, widened to every function when an external
///   function exists (precise address-taken sets are then impossible).
///
/// Cycle detection over the Direct arcs (SCCs of the user functions)
/// yields the recursion predicate the cost function's stack hazard needs.
/// The pseudo arcs would make every I/O-performing function recursive, so
/// they take no part in it; reachability from main follows every arc,
/// pseudo arcs included, and yields function-level dead code information.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_CALLGRAPH_CALLGRAPH_H
#define IMPACT_CALLGRAPH_CALLGRAPH_H

#include "ir/Ir.h"

#include <cstdint>
#include <string>
#include <vector>

namespace impact {

/// Node index in the call graph. Function nodes reuse their FuncId;
/// the two pseudo nodes come after all functions.
using NodeId = int32_t;

enum class ArcKind {
  /// caller -> user callee, a real inlinable site.
  Direct,
  /// caller -> $$$, a call site whose callee body is unavailable.
  ToExternal,
  /// caller -> ###, a call site through a pointer.
  ToPointer,
  /// $$$ -> user function (worst-case pseudo arc, weight 0).
  FromExternal,
  /// ### -> possibly-addressed function (worst-case pseudo arc, weight 0).
  FromPointer,
};

/// One call-graph arc. Real arcs carry the IL call-site id; pseudo arcs
/// have SiteId 0.
struct CallArc {
  NodeId Caller = -1;
  NodeId Callee = -1;
  ArcKind Kind = ArcKind::Direct;
  uint32_t SiteId = 0;
  double Weight = 0.0;
};

class CallGraph {
public:
  CallGraph(size_t NumFuncs);

  size_t getNumFuncs() const { return NumFuncs; }
  size_t getNumNodes() const { return NumFuncs + 2; }
  NodeId getExternalNode() const { return static_cast<NodeId>(NumFuncs); }
  NodeId getPointerNode() const { return static_cast<NodeId>(NumFuncs + 1); }
  bool isPseudoNode(NodeId N) const {
    return N >= static_cast<NodeId>(NumFuncs);
  }

  /// Adds an arc and returns its index.
  size_t addArc(CallArc Arc);

  const std::vector<CallArc> &getArcs() const { return Arcs; }
  std::vector<CallArc> &getArcs() { return Arcs; }

  /// Indices into getArcs() of the arcs leaving \p N.
  const std::vector<size_t> &getOutArcs(NodeId N) const {
    return OutArcIndices[static_cast<size_t>(N)];
  }
  /// Indices into getArcs() of the arcs entering \p N.
  const std::vector<size_t> &getInArcs(NodeId N) const {
    return InArcIndices[static_cast<size_t>(N)];
  }

  /// Returns the index of the (unique) arc with call-site id \p SiteId, or
  /// SIZE_MAX.
  size_t findArcBySite(uint32_t SiteId) const;

  void setNodeWeight(NodeId N, double W) {
    NodeWeights[static_cast<size_t>(N)] = W;
  }
  double getNodeWeight(NodeId N) const {
    return NodeWeights[static_cast<size_t>(N)];
  }

  // SCC / recursion queries (populated by computeScc()), over Direct arcs
  // only: real user-level recursion.

  /// Computes the SCC decomposition (Tarjan).
  void computeScc();
  bool sccComputed() const { return !DirectSccIds.empty(); }

  /// SCC id over Direct arcs only.
  int getDirectSccId(NodeId N) const {
    return DirectSccIds[static_cast<size_t>(N)];
  }
  /// True if \p N participates in real (user-level) recursion (SCC size >1
  /// or a self arc).
  bool isRecursive(NodeId N) const {
    return OnDirectCycle[static_cast<size_t>(N)];
  }

  // Reachability (populated by computeReachability()).

  /// Marks every node reachable from \p Main following arcs.
  void computeReachability(NodeId Main);
  bool reachabilityComputed() const { return !Reachable.empty(); }
  bool isReachable(NodeId N) const { return Reachable[static_cast<size_t>(N)]; }

  /// Debug rendering; \p FuncNames resolves function node labels.
  std::string dump(const std::vector<std::string> &FuncNames) const;

  /// Graphviz rendering of the weighted call graph: nodes labeled with
  /// weights (pseudo nodes as boxes), arcs labeled "site#id w=weight",
  /// recursive nodes outlined bold, unreachable nodes dashed.
  std::string dumpDot(const std::vector<std::string> &FuncNames) const;

private:
  size_t NumFuncs;
  std::vector<CallArc> Arcs;
  std::vector<std::vector<size_t>> OutArcIndices;
  std::vector<std::vector<size_t>> InArcIndices;
  std::vector<double> NodeWeights;
  std::vector<int> DirectSccIds;
  std::vector<bool> OnDirectCycle;
  std::vector<bool> Reachable;
};

} // namespace impact

#endif // IMPACT_CALLGRAPH_CALLGRAPH_H

//===- callgraph/CallGraph.cpp ------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "callgraph/CallGraph.h"

#include "callgraph/Reachability.h"
#include "callgraph/Scc.h"

#include <sstream>

using namespace impact;

CallGraph::CallGraph(size_t NumFuncs) : NumFuncs(NumFuncs) {
  OutArcIndices.resize(getNumNodes());
  InArcIndices.resize(getNumNodes());
  NodeWeights.assign(getNumNodes(), 0.0);
}

size_t CallGraph::addArc(CallArc Arc) {
  size_t Index = Arcs.size();
  OutArcIndices[static_cast<size_t>(Arc.Caller)].push_back(Index);
  InArcIndices[static_cast<size_t>(Arc.Callee)].push_back(Index);
  Arcs.push_back(Arc);
  return Index;
}

size_t CallGraph::findArcBySite(uint32_t SiteId) const {
  if (SiteId == 0)
    return SIZE_MAX;
  for (size_t I = 0; I != Arcs.size(); ++I)
    if (Arcs[I].SiteId == SiteId)
      return I;
  return SIZE_MAX;
}

namespace {
std::vector<std::vector<int>> buildSuccessorLists(const CallGraph &G,
                                                  bool DirectOnly) {
  std::vector<std::vector<int>> Successors(G.getNumNodes());
  for (const CallArc &Arc : G.getArcs()) {
    if (DirectOnly && Arc.Kind != ArcKind::Direct)
      continue;
    Successors[static_cast<size_t>(Arc.Caller)].push_back(Arc.Callee);
  }
  return Successors;
}

} // namespace

void CallGraph::computeScc() {
  SccResult R =
      impact::computeScc(buildSuccessorLists(*this, /*DirectOnly=*/true));
  DirectSccIds = std::move(R.ComponentIds);
  // Self arcs count as cycles.
  OnDirectCycle.assign(getNumNodes(), false);
  for (size_t N = 0; N != getNumNodes(); ++N)
    if (R.ComponentSizes[static_cast<size_t>(DirectSccIds[N])] > 1)
      OnDirectCycle[N] = true;
  for (const CallArc &Arc : Arcs)
    if (Arc.Kind == ArcKind::Direct && Arc.Caller == Arc.Callee)
      OnDirectCycle[static_cast<size_t>(Arc.Caller)] = true;
}

void CallGraph::computeReachability(NodeId Main) {
  Reachable =
      computeReachableSet(buildSuccessorLists(*this, /*DirectOnly=*/false),
                          Main);
}

std::string
CallGraph::dumpDot(const std::vector<std::string> &FuncNames) const {
  auto NodeName = [&](NodeId N) -> std::string {
    if (N == getExternalNode())
      return "$$$";
    if (N == getPointerNode())
      return "###";
    if (static_cast<size_t>(N) < FuncNames.size())
      return FuncNames[static_cast<size_t>(N)];
    return "f" + std::to_string(N);
  };
  std::ostringstream OS;
  OS << "digraph callgraph {\n  rankdir=LR;\n";
  for (size_t N = 0; N != getNumNodes(); ++N) {
    OS << "  n" << N << " [label=\"" << NodeName(static_cast<NodeId>(N));
    if (NodeWeights[N] != 0.0)
      OS << "\\nw=" << NodeWeights[N];
    OS << '"';
    if (isPseudoNode(static_cast<NodeId>(N)))
      OS << ", shape=box";
    if (!OnDirectCycle.empty() && OnDirectCycle[N])
      OS << ", penwidth=2";
    if (!Reachable.empty() && !Reachable[N])
      OS << ", style=dashed";
    OS << "];\n";
  }
  for (const CallArc &Arc : Arcs) {
    OS << "  n" << Arc.Caller << " -> n" << Arc.Callee;
    if (Arc.SiteId != 0)
      OS << " [label=\"site#" << Arc.SiteId << " w=" << Arc.Weight << "\"]";
    else
      OS << " [style=dotted]";
    OS << ";\n";
  }
  OS << "}\n";
  return OS.str();
}

std::string CallGraph::dump(const std::vector<std::string> &FuncNames) const {
  auto NodeName = [&](NodeId N) -> std::string {
    if (N == getExternalNode())
      return "$$$";
    if (N == getPointerNode())
      return "###";
    if (static_cast<size_t>(N) < FuncNames.size())
      return FuncNames[static_cast<size_t>(N)];
    return "f" + std::to_string(N);
  };
  std::ostringstream OS;
  for (size_t N = 0; N != getNumNodes(); ++N) {
    OS << NodeName(static_cast<NodeId>(N)) << " weight="
       << NodeWeights[N];
    if (!OnDirectCycle.empty() && OnDirectCycle[N])
      OS << " recursive";
    if (!Reachable.empty() && !Reachable[N])
      OS << " unreachable";
    OS << '\n';
    for (size_t ArcIndex : OutArcIndices[N]) {
      const CallArc &Arc = Arcs[ArcIndex];
      OS << "  -> " << NodeName(Arc.Callee) << " site#" << Arc.SiteId
         << " weight=" << Arc.Weight << '\n';
    }
  }
  return OS.str();
}

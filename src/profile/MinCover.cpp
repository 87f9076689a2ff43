//===- profile/MinCover.cpp - Minimum-coverage arc instrumentation -----------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/MinCover.h"

#include "analysis/LoopInfo.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace impact {

const char *getInstrumentModeName(InstrumentMode Mode) {
  switch (Mode) {
  case InstrumentMode::Full:
    return "full";
  case InstrumentMode::MinCover:
    return "mincover";
  }
  return "?";
}

bool parseInstrumentMode(const std::string &Text, InstrumentMode &Out,
                         std::string *Error) {
  if (Text == "full") {
    Out = InstrumentMode::Full;
    return true;
  }
  if (Text == "mincover") {
    Out = InstrumentMode::MinCover;
    return true;
  }
  if (Error)
    *Error = "invalid instrument mode '" + Text +
             "' (expected full or mincover)";
  return false;
}

namespace {

/// Union-find over the augmented graph's nodes (blocks + Omega).
class UnionFind {
public:
  explicit UnionFind(size_t N) : Parent(N) {
    std::iota(Parent.begin(), Parent.end(), 0);
  }

  size_t find(size_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }

  bool unite(size_t A, size_t B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return false;
    Parent[A] = B;
    return true;
  }

private:
  std::vector<size_t> Parent;
};

/// 10^min(Depth, 18) as an integer — the static estimator's loop-depth
/// frequency prior, kept integral so tree selection is deterministic.
/// Depths come uncapped from analysis/LoopInfo (the shared implementation
/// the estimator reads too), so deeper nests genuinely outweigh shallower
/// ones here; 18 only guards uint64 overflow (10^18 < 2^63), never ties
/// real programs.
uint64_t depthWeight(unsigned Depth) {
  uint64_t W = 1;
  for (unsigned I = 0; I < Depth && I < 18; ++I)
    W *= 10;
  return W;
}

/// Computes the set of blocks reachable from the entry block along
/// terminator edges. (Duplicates analysis/Cfg's reachability without
/// pulling the dataflow framework into the profiler's dependencies.)
std::vector<bool> reachableBlocks(const Function &F) {
  std::vector<bool> Reached(F.Blocks.size(), false);
  if (F.Blocks.empty())
    return Reached;
  std::vector<BlockId> Work = {0};
  Reached[0] = true;
  while (!Work.empty()) {
    BlockId B = Work.back();
    Work.pop_back();
    const BasicBlock &Blk = F.Blocks[B];
    if (Blk.Instrs.empty())
      continue;
    const Instr &T = Blk.Instrs.back();
    BlockId Succ[2] = {-1, -1};
    if (T.Op == Opcode::Jump) {
      Succ[0] = T.Target;
    } else if (T.Op == Opcode::CondBr) {
      Succ[0] = T.Target;
      Succ[1] = T.Target2;
    }
    for (BlockId S : Succ) {
      if (S >= 0 && static_cast<size_t>(S) < Reached.size() && !Reached[S]) {
        Reached[S] = true;
        Work.push_back(S);
      }
    }
  }
  return Reached;
}

void buildFuncPlan(const Function &F, MinCoverFuncPlan &FP,
                   uint32_t &NextProbe, uint64_t &TotalArcs) {
  const size_t NB = F.Blocks.size();
  FP.Instrumented = true;
  FP.JumpProbes.assign(NB, -1);
  FP.TakenProbes.assign(NB, -1);
  FP.NotTakenProbes.assign(NB, -1);
  FP.RetProbes.assign(NB, -1);

  std::vector<bool> Reached = reachableBlocks(F);
  std::vector<unsigned> Depths = computeLoopDepths(F);

  // Arc 0 is always the Omega->entry arc; its count is the entry count.
  FP.Arcs.push_back({MinCoverArc::Kind::Entry, -1, 0, -1});
  for (BlockId B = 0; B < static_cast<BlockId>(NB); ++B) {
    if (!Reached[B] || F.Blocks[B].Instrs.empty())
      continue;
    const Instr &T = F.Blocks[B].Instrs.back();
    switch (T.Op) {
    case Opcode::Jump:
      FP.Arcs.push_back({MinCoverArc::Kind::Jump, B, T.Target, -1});
      break;
    case Opcode::CondBr:
      if (T.Target == T.Target2) {
        // One merged arc: a degenerate cond_br transfers to the same block
        // either way, and one execution bumps exactly one arc.
        FP.Arcs.push_back({MinCoverArc::Kind::BrMerged, B, T.Target, -1});
      } else {
        FP.Arcs.push_back({MinCoverArc::Kind::BrTaken, B, T.Target, -1});
        FP.Arcs.push_back({MinCoverArc::Kind::BrNotTaken, B, T.Target2, -1});
      }
      break;
    case Opcode::Ret:
      FP.Arcs.push_back({MinCoverArc::Kind::Ret, B, -1, -1});
      break;
    default:
      break;
    }
  }
  TotalArcs += FP.Arcs.size();

  // Kruskal, maximizing total weight: sort arcs by (weight desc, index asc)
  // so selection is deterministic, then keep every arc that joins two
  // components. The Omega node is index NB.
  auto NodeOf = [NB](BlockId B) {
    return B < 0 ? NB : static_cast<size_t>(B);
  };
  auto WeightOf = [&](const MinCoverArc &A) -> uint64_t {
    unsigned DF = A.From < 0 ? 0 : Depths[A.From];
    unsigned DT = A.To < 0 ? 0 : Depths[A.To];
    return depthWeight(std::min(DF, DT));
  };
  std::vector<size_t> Order(FP.Arcs.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return WeightOf(FP.Arcs[A]) > WeightOf(FP.Arcs[B]);
  });
  UnionFind UF(NB + 1);
  std::vector<bool> InTree(FP.Arcs.size(), false);
  for (size_t I : Order)
    if (UF.unite(NodeOf(FP.Arcs[I].From), NodeOf(FP.Arcs[I].To)))
      InTree[I] = true;

  // Probe numbering follows arc construction order, not tree-selection
  // order, so the layout is a pure function of the module text.
  for (size_t I = 0; I < FP.Arcs.size(); ++I) {
    if (InTree[I])
      continue;
    MinCoverArc &A = FP.Arcs[I];
    A.Probe = static_cast<int32_t>(NextProbe++);
    switch (A.K) {
    case MinCoverArc::Kind::Entry:
      FP.EntryProbe = A.Probe;
      break;
    case MinCoverArc::Kind::Jump:
      FP.JumpProbes[A.From] = A.Probe;
      break;
    case MinCoverArc::Kind::BrTaken:
    case MinCoverArc::Kind::BrMerged:
      FP.TakenProbes[A.From] = A.Probe;
      break;
    case MinCoverArc::Kind::BrNotTaken:
      FP.NotTakenProbes[A.From] = A.Probe;
      break;
    case MinCoverArc::Kind::Ret:
      FP.RetProbes[A.From] = A.Probe;
      break;
    }
  }
}

} // namespace

MinCoverPlan buildMinCoverPlan(const Module &M) {
  MinCoverPlan Plan;
  Plan.Funcs.resize(M.Funcs.size());
  Plan.NumSites = M.NextSiteId;
  Plan.NumFuncs = static_cast<uint32_t>(M.Funcs.size());
  for (size_t F = 0; F < M.Funcs.size(); ++F) {
    const Function &Fn = M.Funcs[F];
    if (Fn.IsExternal || Fn.Eliminated || Fn.Blocks.empty())
      continue;
    buildFuncPlan(Fn, Plan.Funcs[F], Plan.NumProbes, Plan.TotalArcs);
  }
  return Plan;
}

ExecStats inferCounts(const Module &M, const MinCoverPlan &Plan,
                      const ExecStats &Raw) {
  ExecStats Out;
  Out.InstrCount = Raw.InstrCount;
  Out.ExternalCalls = Raw.ExternalCalls;
  Out.PeakStackWords = Raw.PeakStackWords;
  Out.SiteCounts.assign(Plan.NumSites, 0);
  Out.FuncEntryCounts.assign(Plan.NumFuncs, 0);

  for (size_t F = 0; F < Plan.Funcs.size() && F < M.Funcs.size(); ++F) {
    const MinCoverFuncPlan &FP = Plan.Funcs[F];
    if (!FP.Instrumented)
      continue;
    const Function &Fn = M.Funcs[F];
    const size_t NB = Fn.Blocks.size();
    const size_t Omega = NB;
    const size_t NumArcs = FP.Arcs.size();

    // Halt aggregates for this function: per-block pending activations and
    // the (block, calls-done) corrections for call sites.
    std::vector<uint64_t> Pending(NB + 1, 0);
    std::vector<HaltRecord> FnHalts;
    uint64_t TotalPending = 0;
    for (const HaltRecord &H : Raw.Halts) {
      if (H.Func != static_cast<FuncId>(F))
        continue;
      assert(H.Block >= 0 && static_cast<size_t>(H.Block) < NB);
      ++Pending[H.Block];
      ++TotalPending;
      FnHalts.push_back(H);
    }

    // Solve the conservation system by leaf-peeling the spanning tree.
    // Invariant per node v:  sum(in) - sum(out) - PendTerm(v) == 0,
    // with PendTerm(b) = pending activations halted in b and
    // PendTerm(Omega) = -TotalPending (returns fall short of entries by
    // exactly the number of still-live activations). All arithmetic wraps
    // mod 2^64, matching the counters, so the solve is exact.
    std::vector<uint64_t> Count(NumArcs, 0);
    std::vector<bool> Known(NumArcs, false);
    // Residual[v] accumulates (known in) - (known out) - PendTerm(v);
    // Degree/XorArc track the unknown (tree) arcs still incident to v.
    std::vector<uint64_t> Residual(NB + 1, 0);
    std::vector<uint32_t> Degree(NB + 1, 0);
    std::vector<uint32_t> XorArc(NB + 1, 0);
    for (size_t B = 0; B < NB; ++B)
      Residual[B] -= Pending[B];
    Residual[Omega] += TotalPending;

    auto NodeOf = [Omega](BlockId B) {
      return B < 0 ? Omega : static_cast<size_t>(B);
    };
    for (size_t A = 0; A < NumArcs; ++A) {
      const MinCoverArc &Arc = FP.Arcs[A];
      size_t From = NodeOf(Arc.From), To = NodeOf(Arc.To);
      if (Arc.Probe >= 0) {
        Known[A] = true;
        Count[A] = static_cast<size_t>(Arc.Probe) < Raw.ArcCounts.size()
                       ? Raw.ArcCounts[Arc.Probe]
                       : 0;
        Residual[From] -= Count[A];
        Residual[To] += Count[A];
      } else {
        // Tree arcs are never self-loops (a self-loop closes a cycle by
        // definition), so From != To here and the degree bookkeeping is
        // one per endpoint.
        ++Degree[From];
        ++Degree[To];
        XorArc[From] ^= static_cast<uint32_t>(A);
        XorArc[To] ^= static_cast<uint32_t>(A);
      }
    }

    std::vector<size_t> Leaves;
    for (size_t V = 0; V <= NB; ++V)
      if (Degree[V] == 1)
        Leaves.push_back(V);
    while (!Leaves.empty()) {
      size_t V = Leaves.back();
      Leaves.pop_back();
      if (Degree[V] != 1)
        continue;
      size_t A = XorArc[V];
      const MinCoverArc &Arc = FP.Arcs[A];
      size_t From = NodeOf(Arc.From), To = NodeOf(Arc.To);
      // Conservation at V determines the last unknown arc at V.
      Count[A] = (To == V) ? uint64_t(0) - Residual[V] : Residual[V];
      Known[A] = true;
      Residual[From] -= Count[A];
      Residual[To] += Count[A];
      for (size_t N : {From, To}) {
        --Degree[N];
        XorArc[N] ^= static_cast<uint32_t>(A);
        if (Degree[N] == 1)
          Leaves.push_back(N);
      }
    }
    assert(std::all_of(Known.begin(), Known.end(), [](bool K) { return K; }) &&
           "spanning tree did not peel to completion");

    // Derived counts: entry arc -> node weight; jump/br -> control
    // transfers; ret -> returns; per-block completions -> site counts.
    std::vector<uint64_t> Completions(NB, 0);
    std::vector<bool> Covered(NB, false);
    for (size_t A = 0; A < NumArcs; ++A) {
      const MinCoverArc &Arc = FP.Arcs[A];
      switch (Arc.K) {
      case MinCoverArc::Kind::Entry:
        Out.FuncEntryCounts[F] = Count[A];
        break;
      case MinCoverArc::Kind::Jump:
      case MinCoverArc::Kind::BrTaken:
      case MinCoverArc::Kind::BrNotTaken:
      case MinCoverArc::Kind::BrMerged:
        Out.ControlTransfers += Count[A];
        break;
      case MinCoverArc::Kind::Ret:
        Out.Returns += Count[A];
        break;
      }
      if (Arc.From >= 0) {
        Completions[Arc.From] += Count[A];
        Covered[Arc.From] = true;
      }
    }

    // A call site in block b ran Completions[b] times via completed block
    // executions, plus once for every live activation that had already
    // finished that call when the run halted (CallsDone > ordinal).
    for (size_t B = 0; B < NB; ++B) {
      if (!Covered[B])
        continue; // unreachable: never executed
      uint32_t Ordinal = 0;
      for (const Instr &I : Fn.Blocks[B].Instrs) {
        if (I.Op != Opcode::Call && I.Op != Opcode::CallPtr)
          continue;
        uint64_t C = Completions[B];
        for (const HaltRecord &H : FnHalts)
          if (H.Block == static_cast<BlockId>(B) && H.CallsDone > Ordinal)
            ++C;
        if (I.SiteId < Out.SiteCounts.size())
          Out.SiteCounts[I.SiteId] = C;
        Out.DynamicCalls += C;
        if (I.Op == Opcode::CallPtr)
          Out.PointerCalls += C;
        ++Ordinal;
      }
    }
  }
  // External entries are measured directly (the bump sits on the cold
  // external-call path); internal entries came out of the solve above.
  for (size_t F = 0; F < Raw.FuncEntryCounts.size(); ++F) {
    if (F >= Out.FuncEntryCounts.size())
      Out.FuncEntryCounts.resize(F + 1, 0);
    if (F < Plan.Funcs.size() && Plan.Funcs[F].Instrumented)
      continue;
    Out.FuncEntryCounts[F] = Raw.FuncEntryCounts[F];
  }
  return Out;
}

} // namespace impact

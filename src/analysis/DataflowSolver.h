//===- analysis/DataflowSolver.h - Iterative worklist dataflow -----------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small reusable engine for intraprocedural dataflow over bitset
/// lattices: a dense BitVector (one bit per register, definition, or
/// block) and an iterative worklist solver parameterized on direction
/// (forward = facts flow along CFG edges, backward = against them),
/// confluence (union for may-analyses, intersection for must-analyses),
/// and a per-block transfer function Out = gen ∪ (In \ kill).
///
/// The solver seeds the worklist in reverse post-order (post-order for
/// backward problems) so typical reducible CFGs converge in two to three
/// sweeps, and re-queues only the affected neighbours on change, which
/// bounds work at O(edges × lattice-height). Unreachable blocks are
/// solved too (their In stays the initializer), letting clients report on
/// them rather than crash.
///
/// Concrete analyses built on this: dominators, liveness, and reaching
/// definitions (analysis/Dataflow.h).
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_ANALYSIS_DATAFLOWSOLVER_H
#define IMPACT_ANALYSIS_DATAFLOWSOLVER_H

#include "analysis/Cfg.h"

#include <cstdint>
#include <vector>

namespace impact {

/// Dense bit vector; the lattice element of every analysis here.
class BitVector {
public:
  BitVector() = default;
  explicit BitVector(size_t Size, bool Value = false)
      : NumBits(Size),
        Words((Size + 63) / 64, Value ? ~uint64_t(0) : uint64_t(0)) {
    clearPadding();
  }

  size_t size() const { return NumBits; }

  bool test(size_t Bit) const {
    return (Words[Bit / 64] >> (Bit % 64)) & 1;
  }
  void set(size_t Bit) { Words[Bit / 64] |= uint64_t(1) << (Bit % 64); }
  void reset(size_t Bit) { Words[Bit / 64] &= ~(uint64_t(1) << (Bit % 64)); }

  void setAll() {
    for (uint64_t &W : Words)
      W = ~uint64_t(0);
    clearPadding();
  }
  void resetAll() {
    for (uint64_t &W : Words)
      W = 0;
  }

  /// this |= Other. Returns true when any bit changed.
  bool unionWith(const BitVector &Other) {
    bool Changed = false;
    for (size_t I = 0; I != Words.size(); ++I) {
      uint64_t New = Words[I] | Other.Words[I];
      Changed |= New != Words[I];
      Words[I] = New;
    }
    return Changed;
  }

  /// this &= Other. Returns true when any bit changed.
  bool intersectWith(const BitVector &Other) {
    bool Changed = false;
    for (size_t I = 0; I != Words.size(); ++I) {
      uint64_t New = Words[I] & Other.Words[I];
      Changed |= New != Words[I];
      Words[I] = New;
    }
    return Changed;
  }

  /// this = (this \ Kill) ∪ Gen — the canonical transfer function.
  void transfer(const BitVector &Gen, const BitVector &Kill) {
    for (size_t I = 0; I != Words.size(); ++I)
      Words[I] = (Words[I] & ~Kill.Words[I]) | Gen.Words[I];
  }

  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += static_cast<size_t>(__builtin_popcountll(W));
    return N;
  }

  friend bool operator==(const BitVector &, const BitVector &) = default;

private:
  /// Keeps bits past NumBits zero so count()/== stay exact after setAll().
  void clearPadding() {
    if (NumBits % 64 != 0 && !Words.empty())
      Words.back() &= (uint64_t(1) << (NumBits % 64)) - 1;
  }

  size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

enum class DataflowDirection { Forward, Backward };
enum class DataflowConfluence { Union, Intersection };

/// One block's equation inputs and solved facts.
struct DataflowBlockState {
  BitVector Gen;
  BitVector Kill;
  BitVector In;
  BitVector Out;
};

/// Solves the classic gen/kill system over \p Cfg.
///
/// \p States must carry one entry per block with Gen/Kill filled in; In and
/// Out are overwritten. \p Boundary initializes the entry block's In
/// (forward) or every exit block's Out (backward); \p Interior initializes
/// everything else (all-ones for intersection problems, all-zeros for
/// union problems — pass it explicitly, the solver does not guess).
inline void solveDataflow(const Cfg &G, DataflowDirection Direction,
                          DataflowConfluence Confluence,
                          const BitVector &Boundary,
                          const BitVector &Interior,
                          std::vector<DataflowBlockState> &States) {
  size_t N = G.getNumBlocks();
  if (N == 0 || States.size() != N)
    return;

  bool Forward = Direction == DataflowDirection::Forward;
  for (size_t B = 0; B != N; ++B) {
    States[B].In = Interior;
    States[B].Out = Interior;
  }

  // Boundary conditions: entry In for forward, exit Outs for backward.
  // (A backward "exit" is any block without successors — Ret blocks.)
  if (Forward) {
    States[0].In = Boundary;
  } else {
    for (size_t B = 0; B != N; ++B)
      if (G.getSuccessors(static_cast<BlockId>(B)).empty())
        States[B].Out = Boundary;
  }

  // Seed the worklist in an order that visits producers before consumers;
  // unreachable blocks go last so their (boundary-less) facts settle too.
  std::vector<BlockId> Seed =
      Forward ? G.getReversePostOrder() : G.getPostOrder();
  std::vector<bool> Seeded(N, false);
  for (BlockId B : Seed)
    Seeded[static_cast<size_t>(B)] = true;
  for (size_t B = 0; B != N; ++B)
    if (!Seeded[B])
      Seed.push_back(static_cast<BlockId>(B));

  std::vector<BlockId> Worklist(Seed.rbegin(), Seed.rend());
  std::vector<bool> OnList(N, true);
  while (!Worklist.empty()) {
    BlockId B = Worklist.back();
    Worklist.pop_back();
    OnList[static_cast<size_t>(B)] = false;
    DataflowBlockState &S = States[static_cast<size_t>(B)];

    // Confluence over the incoming facts. The entry (forward) / exits
    // (backward) keep their boundary term folded in by re-applying it.
    const std::vector<BlockId> &Inputs =
        Forward ? G.getPredecessors(B) : G.getSuccessors(B);
    BitVector &Meet = Forward ? S.In : S.Out;
    if (!Inputs.empty()) {
      Meet = Forward ? States[static_cast<size_t>(Inputs[0])].Out
                     : States[static_cast<size_t>(Inputs[0])].In;
      for (size_t I = 1; I < Inputs.size(); ++I) {
        const DataflowBlockState &Other =
            States[static_cast<size_t>(Inputs[I])];
        if (Confluence == DataflowConfluence::Union)
          Meet.unionWith(Forward ? Other.Out : Other.In);
        else
          Meet.intersectWith(Forward ? Other.Out : Other.In);
      }
      if (Forward && B == 0) {
        // The entry also receives the boundary fact (parameters, etc.).
        if (Confluence == DataflowConfluence::Union)
          Meet.unionWith(Boundary);
        else
          Meet.intersectWith(Boundary);
      }
    }

    BitVector NewOut = Meet;
    NewOut.transfer(S.Gen, S.Kill);
    BitVector &Result = Forward ? S.Out : S.In;
    if (NewOut == Result)
      continue;
    Result = std::move(NewOut);
    for (BlockId Next : Forward ? G.getSuccessors(B) : G.getPredecessors(B))
      if (!OnList[static_cast<size_t>(Next)]) {
        OnList[static_cast<size_t>(Next)] = true;
        Worklist.push_back(Next);
      }
  }
}

/// Generic forward worklist solver over an arbitrary join-semilattice —
/// the second engine in this file, for analyses whose lattice is not a
/// bitset (the interval domain of analysis/RangeAnalysis.h is the first
/// client). The \p Domain supplies:
///
///   using State = ...;                 copyable lattice element
///   State entryState();                boundary fact at block 0
///   void transferBlock(BlockId, State &);   apply the whole block body
///   bool refineEdge(BlockId From, BlockId To, State &);
///       sharpen a block-exit fact along one CFG edge; returning false
///       marks the edge statically infeasible (nothing flows across it)
///   bool joinInto(BlockId To, State &Dest, const State &Src);
///       Dest ⊔= Src, widening however the domain chooses so ascending
///       chains stay finite; returns true when Dest changed
///
/// Unlike solveDataflow above, blocks are reached optimistically: a block
/// no feasible edge ever joins into keeps no state at all (its bit in the
/// returned vector stays 0 and its entry in \p In stays a default, i.e.
/// empty, State), which is how range analysis proves blocks dead through
/// contradictory branch conditions. \p In receives the entry fact of
/// every reached block. The block-exit and edge states are two scratch
/// buffers reused by copy-assignment across every visit, so a State whose
/// copy-assignment keeps its storage (std::vector) costs no allocation
/// per visit.
template <typename Domain>
std::vector<char> solveForwardDataflow(const Cfg &G, Domain &D,
                                       std::vector<typename Domain::State> &In) {
  size_t N = G.getNumBlocks();
  std::vector<char> Reached(N, 0);
  In.assign(N, typename Domain::State());
  if (N == 0)
    return Reached;

  Reached[0] = 1;
  In[0] = D.entryState();
  std::vector<char> Queued(N, 0);
  std::vector<BlockId> Worklist;
  Worklist.push_back(0);
  Queued[0] = 1;

  typename Domain::State Out, Scratch;
  while (!Worklist.empty()) {
    BlockId B = Worklist.back();
    Worklist.pop_back();
    Queued[static_cast<size_t>(B)] = 0;

    Out = In[static_cast<size_t>(B)];
    D.transferBlock(B, Out);
    const std::vector<BlockId> &Succs = G.getSuccessors(B);
    for (size_t K = 0; K != Succs.size(); ++K) {
      BlockId S = Succs[K];
      // The last edge refines the block-exit state itself: nothing reads
      // it afterwards.
      typename Domain::State *Edge = &Out;
      if (K + 1 != Succs.size()) {
        Scratch = Out;
        Edge = &Scratch;
      }
      if (!D.refineEdge(B, S, *Edge))
        continue;
      bool Changed;
      if (!Reached[static_cast<size_t>(S)]) {
        Reached[static_cast<size_t>(S)] = 1;
        In[static_cast<size_t>(S)] = *Edge;
        Changed = true;
      } else {
        Changed = D.joinInto(S, In[static_cast<size_t>(S)], *Edge);
      }
      if (Changed && !Queued[static_cast<size_t>(S)]) {
        Queued[static_cast<size_t>(S)] = 1;
        Worklist.push_back(S);
      }
    }
  }
  return Reached;
}

} // namespace impact

#endif // IMPACT_ANALYSIS_DATAFLOWSOLVER_H

//===- analysis/RangeAnalysis.cpp - Interprocedural value ranges ------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/RangeAnalysis.h"

#include "analysis/Dataflow.h"
#include "analysis/DataflowSolver.h"
#include "analysis/LoopInfo.h"
#include "callgraph/Scc.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace impact;

//===----------------------------------------------------------------------===//
// Interval lattice
//===----------------------------------------------------------------------===//

static constexpr int64_t kIntMin = std::numeric_limits<int64_t>::min();
static constexpr int64_t kIntMax = std::numeric_limits<int64_t>::max();

Interval impact::join(Interval A, Interval B) {
  if (A.isBottom())
    return B;
  if (B.isBottom())
    return A;
  return Interval{std::min(A.Lo, B.Lo), std::max(A.Hi, B.Hi)};
}

Interval impact::meet(Interval A, Interval B) {
  if (A.isBottom() || B.isBottom())
    return Interval::bottom();
  return Interval::make(std::max(A.Lo, B.Lo), std::min(A.Hi, B.Hi));
}

Interval impact::widen(Interval Old, Interval New) {
  if (Old.isBottom())
    return New;
  if (New.isBottom())
    return Old;
  return Interval{New.Lo < Old.Lo ? kIntMin : Old.Lo,
                  New.Hi > Old.Hi ? kIntMax : Old.Hi};
}

std::string impact::renderInterval(Interval I) {
  if (I.isBottom())
    return "bot";
  std::string Lo = I.Lo == kIntMin ? "-inf" : std::to_string(I.Lo);
  std::string Hi = I.Hi == kIntMax ? "+inf" : std::to_string(I.Hi);
  return "[" + Lo + "," + Hi + "]";
}

Interval impact::rangeAdd(Interval A, Interval B) {
  if (A.isBottom() || B.isBottom())
    return Interval::bottom();
  int64_t Lo, Hi;
  if (__builtin_add_overflow(A.Lo, B.Lo, &Lo) ||
      __builtin_add_overflow(A.Hi, B.Hi, &Hi))
    return Interval::top();
  return Interval{Lo, Hi};
}

Interval impact::rangeSub(Interval A, Interval B) {
  if (A.isBottom() || B.isBottom())
    return Interval::bottom();
  int64_t Lo, Hi;
  if (__builtin_sub_overflow(A.Lo, B.Hi, &Lo) ||
      __builtin_sub_overflow(A.Hi, B.Lo, &Hi))
    return Interval::top();
  return Interval{Lo, Hi};
}

Interval impact::rangeMul(Interval A, Interval B) {
  if (A.isBottom() || B.isBottom())
    return Interval::bottom();
  int64_t Lo = kIntMax, Hi = kIntMin;
  for (int64_t X : {A.Lo, A.Hi})
    for (int64_t Y : {B.Lo, B.Hi}) {
      int64_t P;
      if (__builtin_mul_overflow(X, Y, &P))
        return Interval::top();
      Lo = std::min(Lo, P);
      Hi = std::max(Hi, P);
    }
  return Interval{Lo, Hi};
}

bool impact::divMayTrap(Interval Dividend, Interval Divisor) {
  if (Dividend.isBottom() || Divisor.isBottom())
    return false; // the operation never executes
  if (Divisor.contains(0))
    return true;
  return Dividend.contains(kIntMin) && Divisor.contains(-1);
}

Interval impact::rangeDiv(Interval A, Interval B) {
  if (A.isBottom() || B.isBottom())
    return Interval::bottom();
  // The transfer may assume the division did not trap — a trapping
  // instance produces no value — but corner evaluation itself must not
  // hit INT64_MIN / -1, so any hazard sends us to top.
  if (B.contains(0) || (A.contains(kIntMin) && B.contains(-1)))
    return Interval::top();
  int64_t Lo = kIntMax, Hi = kIntMin;
  for (int64_t X : {A.Lo, A.Hi})
    for (int64_t Y : {B.Lo, B.Hi}) {
      int64_t Q = X / Y;
      Lo = std::min(Lo, Q);
      Hi = std::max(Hi, Q);
    }
  return Interval{Lo, Hi};
}

Interval impact::rangeRem(Interval A, Interval B) {
  if (A.isBottom() || B.isBottom())
    return Interval::bottom();
  if (B.contains(0) || B.Lo == kIntMin ||
      (A.contains(kIntMin) && B.contains(-1)))
    return Interval::top();
  if (A.isConstant() && B.isConstant())
    return Interval::constant(A.Lo % B.Lo); // hazards excluded above
  // |r| < max|divisor|, and r keeps the dividend's sign (C semantics).
  int64_t MagLo = B.Lo < 0 ? -B.Lo : B.Lo;
  int64_t MagHi = B.Hi < 0 ? -B.Hi : B.Hi;
  int64_t D = std::max(MagLo, MagHi) - 1;
  int64_t Lo = std::max(-D, std::min(A.Lo, int64_t(0)));
  int64_t Hi = std::min(D, std::max(A.Hi, int64_t(0)));
  return Interval::make(Lo, Hi);
}

Interval impact::rangeShl(Interval A, Interval B) {
  if (A.isBottom() || B.isBottom())
    return Interval::bottom();
  // Only a constant in-range shift amount is handled exactly; the engines
  // mask the amount with 63, so a non-constant amount could select any of
  // 64 different scalings.
  if (!B.isConstant() || B.Lo < 0 || B.Lo > 62)
    return Interval::top();
  int64_t Scale = int64_t(1) << B.Lo;
  return rangeMul(A, Interval::constant(Scale));
}

Interval impact::rangeShr(Interval A, Interval B) {
  if (A.isBottom() || B.isBottom())
    return Interval::bottom();
  if (B.Lo < 0 || B.Hi > 63)
    return Interval::top(); // the &63 mask can pick any amount
  int64_t Lo = kIntMax, Hi = kIntMin;
  for (int64_t X : {A.Lo, A.Hi})
    for (int64_t Y : {B.Lo, B.Hi}) {
      int64_t S = X >> Y;
      Lo = std::min(Lo, S);
      Hi = std::max(Hi, S);
    }
  return Interval{Lo, Hi};
}

/// Smallest all-ones mask covering \p V (V >= 0): 5 -> 7, 8 -> 15, 0 -> 0.
static int64_t onesMask(int64_t V) {
  int64_t M = V;
  M |= M >> 1;
  M |= M >> 2;
  M |= M >> 4;
  M |= M >> 8;
  M |= M >> 16;
  M |= M >> 32;
  return M;
}

Interval impact::rangeAnd(Interval A, Interval B) {
  if (A.isBottom() || B.isBottom())
    return Interval::bottom();
  // x & y with y in [0, H] has only bits of y, so it lies in [0, H]
  // regardless of x's sign; symmetric in the other operand.
  if (B.isNonNegative())
    return Interval{0, B.Hi};
  if (A.isNonNegative())
    return Interval{0, A.Hi};
  return Interval::top();
}

Interval impact::rangeOr(Interval A, Interval B) {
  if (A.isBottom() || B.isBottom())
    return Interval::bottom();
  if (A.isNonNegative() && B.isNonNegative()) {
    // a|b >= max(a,b) and a|b fits in the union of both bit masks.
    int64_t Lo = std::max(A.Lo, B.Lo);
    int64_t Hi = onesMask(A.Hi) | onesMask(B.Hi);
    return Interval{Lo, Hi};
  }
  return Interval::top();
}

Interval impact::rangeXor(Interval A, Interval B) {
  if (A.isBottom() || B.isBottom())
    return Interval::bottom();
  if (A.isNonNegative() && B.isNonNegative())
    return Interval{0, onesMask(A.Hi) | onesMask(B.Hi)};
  return Interval::top();
}

Interval impact::rangeNeg(Interval A) {
  if (A.isBottom())
    return Interval::bottom();
  if (A.Lo == kIntMin)
    return Interval::top(); // -INT64_MIN wraps
  return Interval{-A.Hi, -A.Lo};
}

Interval impact::rangeNot(Interval A) {
  if (A.isBottom())
    return Interval::bottom();
  return Interval{~A.Hi, ~A.Lo};
}

Interval impact::rangeCmp(Opcode Op, Interval A, Interval B) {
  if (A.isBottom() || B.isBottom())
    return Interval::bottom();
  auto Decide = [](int MustHold) {
    // 1 = provably true, 0 = provably false, -1 = unknown.
    if (MustHold == 1)
      return Interval::constant(1);
    if (MustHold == 0)
      return Interval::constant(0);
    return Interval{0, 1};
  };
  bool Disjoint = A.Hi < B.Lo || B.Hi < A.Lo;
  switch (Op) {
  case Opcode::CmpEq:
    if (A.isConstant() && B.isConstant())
      return Decide(A.Lo == B.Lo);
    return Decide(Disjoint ? 0 : -1);
  case Opcode::CmpNe:
    if (A.isConstant() && B.isConstant())
      return Decide(A.Lo != B.Lo);
    return Decide(Disjoint ? 1 : -1);
  case Opcode::CmpLt:
    return Decide(A.Hi < B.Lo ? 1 : (A.Lo >= B.Hi ? 0 : -1));
  case Opcode::CmpLe:
    return Decide(A.Hi <= B.Lo ? 1 : (A.Lo > B.Hi ? 0 : -1));
  case Opcode::CmpGt:
    return Decide(A.Lo > B.Hi ? 1 : (A.Hi <= B.Lo ? 0 : -1));
  case Opcode::CmpGe:
    return Decide(A.Lo >= B.Hi ? 1 : (A.Hi < B.Lo ? 0 : -1));
  default:
    return Interval{0, 1};
  }
}

//===----------------------------------------------------------------------===//
// Branch refinement
//===----------------------------------------------------------------------===//

/// Refines \p A and \p B under the assumption that "A pred B" holds.
/// Either may collapse to bottom, proving the assumption (and hence the
/// refined edge) infeasible.
static void refineByCmp(Opcode Pred, Interval &A, Interval &B) {
  switch (Pred) {
  case Opcode::CmpEq: {
    Interval M = meet(A, B);
    A = M;
    B = M;
    return;
  }
  case Opcode::CmpNe:
    // Only boundary exclusion against a constant is representable.
    if (B.isConstant() && !A.isBottom()) {
      if (A.Lo == B.Lo && A.Lo != kIntMax)
        A.Lo += 1;
      else if (A.Hi == B.Lo && A.Hi != kIntMin)
        A.Hi -= 1;
      if (A.isConstant() && A.Lo == B.Lo)
        A = Interval::bottom();
    }
    if (A.isConstant() && !B.isBottom()) {
      if (B.Lo == A.Lo && B.Lo != kIntMax)
        B.Lo += 1;
      else if (B.Hi == A.Lo && B.Hi != kIntMin)
        B.Hi -= 1;
      if (B.isConstant() && B.Lo == A.Lo)
        B = Interval::bottom();
    }
    return;
  case Opcode::CmpLt:
    // A < B: A <= B.Hi - 1, B >= A.Lo + 1.
    A = meet(A, B.Hi == kIntMin ? Interval::bottom()
                                : Interval{kIntMin, B.Hi - 1});
    B = meet(B, A.isBottom() || A.Lo == kIntMax
                    ? Interval::bottom()
                    : Interval{A.Lo + 1, kIntMax});
    return;
  case Opcode::CmpLe:
    A = meet(A, Interval{kIntMin, B.Hi});
    B = meet(B, A.isBottom() ? Interval::bottom() : Interval{A.Lo, kIntMax});
    return;
  case Opcode::CmpGt:
    A = meet(A, B.Lo == kIntMax ? Interval::bottom()
                                : Interval{B.Lo + 1, kIntMax});
    B = meet(B, A.isBottom() || A.Hi == kIntMin
                    ? Interval::bottom()
                    : Interval{kIntMin, A.Hi - 1});
    return;
  case Opcode::CmpGe:
    A = meet(A, Interval{B.Lo, kIntMax});
    B = meet(B, A.isBottom() ? Interval::bottom() : Interval{kIntMin, A.Hi});
    return;
  default:
    return;
  }
}

/// The comparison asserting the *opposite* of \p Pred.
static Opcode negateCmp(Opcode Pred) {
  switch (Pred) {
  case Opcode::CmpEq:
    return Opcode::CmpNe;
  case Opcode::CmpNe:
    return Opcode::CmpEq;
  case Opcode::CmpLt:
    return Opcode::CmpGe;
  case Opcode::CmpLe:
    return Opcode::CmpGt;
  case Opcode::CmpGt:
    return Opcode::CmpLe;
  case Opcode::CmpGe:
    return Opcode::CmpLt;
  default:
    return Pred;
  }
}

//===----------------------------------------------------------------------===//
// RangeAnalysis
//===----------------------------------------------------------------------===//

namespace impact {

/// Adapter between RangeAnalysis and the generic forward solver. Widening
/// fires after a short delay — 2 changed joins at loop headers (one plain
/// join lets small constant-step loops converge exactly before blow-up),
/// 8 anywhere else (a backstop for irreducible or pathological shapes).
struct RangeDomain {
  using State = RangeAnalysis::Env;

  const RangeAnalysis &RA;
  std::vector<uint32_t> JoinCounts;

  explicit RangeDomain(const RangeAnalysis &RA)
      : RA(RA), JoinCounts(RA.G.getNumBlocks(), 0) {}

  State entryState() {
    State E(RA.F.NumRegs, Interval::constant(0));
    for (uint32_t P = 0; P != RA.F.NumParams; ++P) {
      Interval PI = Interval::top();
      if (RA.F.Id >= 0 &&
          static_cast<size_t>(RA.F.Id) < RA.Facts.Funcs.size()) {
        const FunctionRangeSummary &S =
            RA.Facts.Funcs[static_cast<size_t>(RA.F.Id)];
        if (S.Params.size() == RA.F.NumParams)
          PI = S.Params[P];
      }
      E[P] = PI;
    }
    return E;
  }

  void transferBlock(BlockId B, State &E) {
    for (const Instr &I : RA.F.Blocks[static_cast<size_t>(B)].Instrs)
      RA.step(I, E);
  }

  bool refineEdge(BlockId From, BlockId To, State &E) {
    return RA.refineEdge(From, To, E);
  }

  bool joinInto(BlockId To, State &Dest, const State &Src) {
    bool Changed = false;
    uint32_t Delay = RA.IsHeader[static_cast<size_t>(To)] ? 2 : 8;
    bool Widen = JoinCounts[static_cast<size_t>(To)] >= Delay;
    size_t N = std::min(Dest.size(), Src.size());
    for (size_t I = 0; I != N; ++I) {
      if (Src[I].Lo == Dest[I].Lo && Src[I].Hi == Dest[I].Hi)
        continue; // X join X and X widen X are X
      Interval J = join(Dest[I], Src[I]);
      if (Widen)
        J = widen(Dest[I], J);
      if (J != Dest[I]) {
        Dest[I] = J;
        Changed = true;
      }
    }
    if (Changed)
      ++JoinCounts[static_cast<size_t>(To)];
    return Changed;
  }
};

} // namespace impact

std::vector<char> impact::computeWideningHeaders(const Function &F) {
  std::vector<char> Headers(F.Blocks.size(), 0);
  for (const Loop &L : computeLoopInfo(F).Loops)
    if (L.Header >= 0 && static_cast<size_t>(L.Header) < Headers.size())
      Headers[static_cast<size_t>(L.Header)] = 1;
  return Headers;
}

RangeAnalysis::RangeAnalysis(const Function &F, const Cfg &G,
                             const std::vector<char> &Headers, const Module &M,
                             const ModuleRangeFacts &Facts)
    : F(F), G(G), M(M), Facts(Facts), IsHeader(Headers) {
  size_t N = G.getNumBlocks();
  assert(IsHeader.size() == N && "widening-header mask of another function");
  Reached.assign(N, 0);
  if (N == 0)
    return;

  // A bottom formal proves the function is never entered; nothing inside
  // it is reachable and every fact about it is vacuous.
  if (F.Id >= 0 && static_cast<size_t>(F.Id) < Facts.Funcs.size()) {
    const FunctionRangeSummary &S = Facts.Funcs[static_cast<size_t>(F.Id)];
    if (S.Params.size() == F.NumParams)
      for (const Interval &P : S.Params)
        if (P.isBottom()) {
          In.resize(N);
          return;
        }
  }
  solve();
}

void RangeAnalysis::solve() {
  RangeDomain D(*this);
  Reached = solveForwardDataflow(G, D, In);

  // Two narrowing sweeps: recompute each reached join in reverse post-order
  // without widening. The solved state is a post-fixpoint of the monotone
  // transfer system, so every recomputation stays above the least fixpoint
  // — each sweep only tightens. An edge (or a whole block) can be proven
  // infeasible here that widening had kept alive; it loses its state
  // like a block the solver never reached. A predecessor's exit state is
  // stepped once per value of its entry state and memoized in Exit (a
  // CondBr block feeds both successors from one transfer); reassigning a
  // block's In drops its memo. NewIn and Edge are scratch buffers reused
  // across every block and edge.
  std::vector<Env> Exit(In.size());
  std::vector<char> ExitValid(In.size(), 0);
  Env NewIn, Edge;
  for (int Sweep = 0; Sweep != 2; ++Sweep) {
    for (BlockId B : G.getReversePostOrder()) {
      if (B == 0 || !Reached[static_cast<size_t>(B)])
        continue;
      NewIn.assign(F.NumRegs, Interval::bottom());
      bool AnyEdge = false;
      for (BlockId P : G.getPredecessors(B)) {
        size_t PI = static_cast<size_t>(P);
        if (!Reached[PI])
          continue;
        if (!ExitValid[PI]) {
          Exit[PI] = In[PI];
          for (const Instr &I : F.Blocks[PI].Instrs)
            step(I, Exit[PI]);
          ExitValid[PI] = 1;
        }
        Edge = Exit[PI];
        if (!refineEdge(P, B, Edge))
          continue;
        AnyEdge = true;
        for (size_t R = 0; R != NewIn.size() && R < Edge.size(); ++R)
          NewIn[R] = join(NewIn[R], Edge[R]);
      }
      if (!AnyEdge) {
        Reached[static_cast<size_t>(B)] = 0;
        In[static_cast<size_t>(B)].clear();
      } else {
        In[static_cast<size_t>(B)].swap(NewIn);
      }
      ExitValid[static_cast<size_t>(B)] = 0;
    }
  }
}

Interval RangeAnalysis::eval(const Instr &I, const Env &E) const {
  Interval A = get(E, I.Src1);
  Interval B = get(E, I.Src2);
  switch (I.Op) {
  case Opcode::Mov:
    return A;
  case Opcode::LdImm:
    return Interval::constant(I.Imm);
  case Opcode::Add:
    return rangeAdd(A, B);
  case Opcode::Sub:
    return rangeSub(A, B);
  case Opcode::Mul:
    return rangeMul(A, B);
  case Opcode::Div:
    return rangeDiv(A, B);
  case Opcode::Rem:
    return rangeRem(A, B);
  case Opcode::Shl:
    return rangeShl(A, B);
  case Opcode::Shr:
    return rangeShr(A, B);
  case Opcode::And:
    return rangeAnd(A, B);
  case Opcode::Or:
    return rangeOr(A, B);
  case Opcode::Xor:
    return rangeXor(A, B);
  case Opcode::Neg:
    return rangeNeg(A);
  case Opcode::Not:
    return rangeNot(A);
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
    return rangeCmp(I.Op, A, B);
  case Opcode::Load:
    return Interval::top();
  case Opcode::FrameAddr:
    // FP >= kStackBase and frames grow upward; the offset is non-negative.
    return Interval{kStackBase, kIntMax};
  case Opcode::GlobalAddr:
    return Interval::constant(M.getGlobalAddress(I.Imm));
  case Opcode::FuncAddr:
    return Interval::constant(encodeFuncAddr(I.Callee));
  case Opcode::Call:
    if (I.Callee >= 0 &&
        static_cast<size_t>(I.Callee) < Facts.Funcs.size()) {
      const FunctionRangeSummary &S =
          Facts.Funcs[static_cast<size_t>(I.Callee)];
      if (S.HasSummary)
        return S.Ret;
    }
    return Interval::top();
  case Opcode::CallPtr:
    return Interval::top();
  default:
    return Interval::top();
  }
}

void RangeAnalysis::step(const Instr &I, Env &E) const {
  Reg D = instrDef(I);
  if (D == kNoReg || static_cast<size_t>(D) >= E.size())
    return;
  E[static_cast<size_t>(D)] = eval(I, E);
}

bool RangeAnalysis::refineEdge(BlockId From, BlockId To, Env &E) const {
  const BasicBlock &B = F.Blocks[static_cast<size_t>(From)];
  if (B.Instrs.empty())
    return true;
  const Instr &T = B.Instrs.back();
  if (T.Op != Opcode::CondBr || T.Target == T.Target2)
    return true;
  bool Taken = To == T.Target;

  // The condition register itself: != 0 on the taken edge, == 0 otherwise.
  Reg C = T.Src1;
  Interval CI = get(E, C);
  if (CI.isBottom())
    return false;
  if (Taken) {
    if (CI.isConstant() && CI.Lo == 0)
      return false;
    if (CI.Lo == 0)
      CI.Lo = 1;
    else if (CI.Hi == 0)
      CI.Hi = -1;
  } else {
    if (!CI.contains(0))
      return false;
    CI = Interval::constant(0);
  }
  if (C >= 0 && static_cast<size_t>(C) < E.size())
    E[static_cast<size_t>(C)] = CI;

  // If the condition is a comparison computed in this block whose operands
  // survive to the branch, push the predicate into the operands.
  int DefIdx = -1;
  for (int I = static_cast<int>(B.Instrs.size()) - 2; I >= 0; --I)
    if (instrDef(B.Instrs[static_cast<size_t>(I)]) == C) {
      DefIdx = I;
      break;
    }
  if (DefIdx < 0)
    return true;
  const Instr &D = B.Instrs[static_cast<size_t>(DefIdx)];
  if (!isCompareOp(D.Op))
    return true;
  Reg RA = D.Src1, RB = D.Src2;
  if (RA == C || RB == C || RA == kNoReg || RB == kNoReg)
    return true;
  for (size_t I = static_cast<size_t>(DefIdx) + 1; I + 1 < B.Instrs.size();
       ++I) {
    Reg Redef = instrDef(B.Instrs[I]);
    if (Redef == RA || Redef == RB)
      return true; // an operand changed between the compare and the branch
  }

  Opcode Pred = Taken ? D.Op : negateCmp(D.Op);
  Interval IA = get(E, RA), IB = get(E, RB);
  refineByCmp(Pred, IA, IB);
  if (IA.isBottom() || IB.isBottom())
    return false;
  if (static_cast<size_t>(RA) < E.size())
    E[static_cast<size_t>(RA)] = IA;
  if (static_cast<size_t>(RB) < E.size())
    E[static_cast<size_t>(RB)] = IB;
  return true;
}

//===----------------------------------------------------------------------===//
// Interprocedural summaries
//===----------------------------------------------------------------------===//

namespace {

bool isDefined(const Function &F) {
  return !F.IsExternal && !F.Eliminated && !F.Blocks.empty();
}

/// What every solve of one defined function reuses within a fact
/// computation: its CFG and widening-header mask.
struct FunctionShape {
  Cfg G;
  std::vector<char> Headers;

  explicit FunctionShape(const Function &F)
      : G(F), Headers(computeWideningHeaders(F)) {}
};

/// Indexed by FuncId; engaged for defined functions only.
using FunctionShapes = std::vector<std::optional<FunctionShape>>;

/// One bottom-up evaluation of a function against the facts accumulated so
/// far: return range and purity bits. A \p Final evaluation runs against
/// the function's final formals and callee summaries: it also records
/// every call site's argument intervals and hands the solved function to
/// \p Visit.
struct BottomUpResult {
  Interval Ret = Interval::bottom();
  bool ReadsGlobals = false;
  bool WritesGlobals = false;
  bool MayTrap = false;
};

void recordSiteArgs(const Instr &I, const RangeAnalysis::Env &E,
                    ModuleRangeFacts &Facts) {
  if (I.SiteId == 0 || I.SiteId >= Facts.SiteArgs.size())
    return;
  std::vector<Interval> &Args = Facts.SiteArgs[I.SiteId];
  Args.resize(I.Args.size());
  for (size_t A = 0; A != I.Args.size(); ++A)
    Args[A] = RangeAnalysis::get(E, I.Args[A]);
  Facts.SiteHasFact[I.SiteId] = 1;
}

BottomUpResult evaluateFunction(const Function &F, const FunctionShape &Shape,
                                const Module &M, ModuleRangeFacts &Facts,
                                bool Final, const RangeVisitor &Visit) {
  BottomUpResult R;
  const Cfg &G = Shape.G;
  RangeAnalysis Ranges(F, G, Shape.Headers, M, Facts);

  RangeAnalysis::Env E;
  for (size_t B = 0; B != F.Blocks.size(); ++B) {
    if (!Ranges.isReachable(static_cast<BlockId>(B)))
      continue;
    E = Ranges.blockIn(static_cast<BlockId>(B));
    for (const Instr &I : F.Blocks[B].Instrs) {
      switch (I.Op) {
      case Opcode::Load:
      case Opcode::Store: {
        Interval Addr = RangeAnalysis::get(E, I.Src1);
        bool InGlobals = !Addr.isBottom() && Addr.Lo >= Facts.GlobalLo &&
                         Addr.Hi < Facts.GlobalHi;
        bool OutsideGlobals = !Addr.isBottom() && (Addr.Hi < Facts.GlobalLo ||
                                                   Addr.Lo >= Facts.GlobalHi);
        if (I.Op == Opcode::Load) {
          if (!OutsideGlobals)
            R.ReadsGlobals = true;
        } else if (!OutsideGlobals) {
          R.WritesGlobals = true;
        }
        if (!InGlobals)
          R.MayTrap = true; // only a proven global word can never trap
        break;
      }
      case Opcode::Div:
      case Opcode::Rem:
        if (divMayTrap(RangeAnalysis::get(E, I.Src1),
                       RangeAnalysis::get(E, I.Src2)))
          R.MayTrap = true;
        break;
      case Opcode::Call: {
        // Any call can die of control-stack explosion at entry, so MayTrap
        // is unconditional; the other bits merge transitively.
        R.MayTrap = true;
        bool Known = false;
        if (I.Callee >= 0 &&
            static_cast<size_t>(I.Callee) < Facts.Funcs.size()) {
          const FunctionRangeSummary &S =
              Facts.Funcs[static_cast<size_t>(I.Callee)];
          if (S.HasSummary) {
            Known = true;
            R.ReadsGlobals |= S.ReadsGlobals;
            R.WritesGlobals |= S.WritesGlobals;
          }
        }
        if (!Known) {
          // External or unresolvable callee: intrinsics can touch memory
          // behind the IL's back, and unknown externals trap outright.
          R.ReadsGlobals = true;
          R.WritesGlobals = true;
        }
        if (Final)
          recordSiteArgs(I, E, Facts);
        break;
      }
      case Opcode::CallPtr:
        R.ReadsGlobals = true;
        R.WritesGlobals = true;
        R.MayTrap = true;
        if (Final)
          recordSiteArgs(I, E, Facts);
        break;
      case Opcode::Ret: {
        Interval V = I.Src1 == kNoReg ? Interval::constant(0)
                                      : RangeAnalysis::get(E, I.Src1);
        R.Ret = join(R.Ret, V);
        break;
      }
      default:
        break;
      }
      Ranges.step(I, E);
    }
  }
  if (Final && Visit)
    Visit(F, G, Ranges);
  return R;
}

/// Solves one SCC's summaries from the optimistic initial state (Ret
/// bottom, all-pure). A non-recursive component — one member that does
/// not call itself — takes one round: the evaluation reads no summary of
/// its own component, so a second round would repeat the first exactly.
/// A recursive component iterates to a fixpoint of the bottom-up
/// equations. Purity bits only move one way and Ret is widened against
/// its previous round, so convergence is fast; a generous round cap
/// backstops it, after which everything collapses to the conservative
/// answer. In the \p Final phase each member's last evaluation is the
/// final one (see evaluateFunction): the single round of a non-recursive
/// function, one more evaluation per member of a recursive component.
void solveComponent(const std::vector<int> &Members, bool Recursive,
                    const FunctionShapes &Shapes, const Module &M,
                    ModuleRangeFacts &Facts, bool Final,
                    const RangeVisitor &Visit) {
  for (int FI : Members) {
    FunctionRangeSummary &S = Facts.Funcs[static_cast<size_t>(FI)];
    S.Ret = Interval::bottom();
    S.ReadsGlobals = false;
    S.WritesGlobals = false;
    S.MayTrap = false;
  }
  const int MaxRounds = 8;
  bool Converged = false;
  for (int Round = 0; Round != MaxRounds && !Converged; ++Round) {
    bool Changed = false;
    for (int FI : Members) {
      const Function &F = M.Funcs[static_cast<size_t>(FI)];
      BottomUpResult R = evaluateFunction(F, *Shapes[static_cast<size_t>(FI)],
                                          M, Facts, Final && !Recursive, Visit);
      FunctionRangeSummary &S = Facts.Funcs[static_cast<size_t>(FI)];
      Interval NewRet = Round >= 2 ? widen(S.Ret, join(S.Ret, R.Ret))
                                   : join(S.Ret, R.Ret);
      if (NewRet != S.Ret || R.ReadsGlobals != S.ReadsGlobals ||
          R.WritesGlobals != S.WritesGlobals || R.MayTrap != S.MayTrap) {
        S.Ret = NewRet;
        S.ReadsGlobals |= R.ReadsGlobals;
        S.WritesGlobals |= R.WritesGlobals;
        S.MayTrap |= R.MayTrap;
        Changed = true;
      }
    }
    Converged = !Changed || !Recursive;
  }
  if (!Converged) {
    // Round cap hit (pathological mutual recursion): go conservative.
    for (int FI : Members) {
      FunctionRangeSummary &S = Facts.Funcs[static_cast<size_t>(FI)];
      S.Ret = Interval::top();
      S.ReadsGlobals = true;
      S.WritesGlobals = true;
      S.MayTrap = true;
    }
  }
  if (Final && Recursive)
    for (int FI : Members)
      (void)evaluateFunction(M.Funcs[static_cast<size_t>(FI)],
                             *Shapes[static_cast<size_t>(FI)], M, Facts,
                             /*Final=*/true, Visit);
}

} // namespace

ModuleRangeFacts impact::computeModuleRangeFacts(const Module &M,
                                                 const RangeVisitor &Visit) {
  ModuleRangeFacts Facts;
  size_t N = M.Funcs.size();
  Facts.Funcs.resize(N);
  Facts.GlobalLo = kGlobalBase;
  Facts.GlobalHi = kGlobalBase + M.getGlobalSegmentSize();
  Facts.SiteArgs.resize(M.NextSiteId);
  Facts.SiteHasFact.assign(M.NextSiteId, 0);

  std::vector<std::vector<int>> Succ(N);
  std::vector<char> CallsItself(N, 0);
  FunctionShapes Shapes(N);
  for (size_t FI = 0; FI != N; ++FI) {
    const Function &F = M.Funcs[FI];
    if (!isDefined(F))
      continue;
    Facts.Funcs[FI].HasSummary = true;
    Shapes[FI].emplace(F);
    for (const BasicBlock &B : F.Blocks)
      for (const Instr &I : B.Instrs) {
        if (I.Op == Opcode::CallPtr)
          Facts.HasCallPtr = true;
        if (I.Op == Opcode::Call && I.Callee >= 0 &&
            static_cast<size_t>(I.Callee) < N) {
          Succ[FI].push_back(I.Callee);
          if (static_cast<size_t>(I.Callee) == FI)
            CallsItself[FI] = 1;
        }
      }
  }

  SccResult Scc = computeScc(Succ);
  std::vector<std::vector<int>> Members(
      static_cast<size_t>(Scc.NumComponents));
  for (size_t FI = 0; FI != N; ++FI)
    if (isDefined(M.Funcs[FI]))
      Members[static_cast<size_t>(Scc.ComponentIds[FI])].push_back(
          static_cast<int>(FI));
  auto IsRecursive = [&](const std::vector<int> &C) {
    return C.size() > 1 || CallsItself[static_cast<size_t>(C.front())];
  };

  // Phase A: bottom-up return + purity with formals at top. Component ids
  // come out of Tarjan in reverse topological order of the condensation,
  // so ascending id order visits callees before callers.
  for (const std::vector<int> &C : Members)
    if (!C.empty())
      solveComponent(C, IsRecursive(C), Shapes, M, Facts, /*Final=*/false,
                     Visit);

  // Phase B: top-down formal propagation from main over direct sites. A
  // single CallPtr anywhere defeats it: a forged pointer can enter any
  // function with any arguments, so every formal fact would be unsound.
  if (Facts.HasCallPtr) {
    for (size_t FI = 0; FI != N; ++FI)
      if (Facts.Funcs[FI].HasSummary)
        Facts.Funcs[FI].Params.assign(M.Funcs[FI].NumParams, Interval::top());
  } else {
    std::vector<std::vector<Interval>> Formals(N);
    std::vector<uint32_t> Updates(N, 0);
    for (size_t FI = 0; FI != N; ++FI)
      if (Facts.Funcs[FI].HasSummary)
        Formals[FI].assign(M.Funcs[FI].NumParams, Interval::bottom());
    if (M.MainId >= 0 && static_cast<size_t>(M.MainId) < N &&
        Facts.Funcs[static_cast<size_t>(M.MainId)].HasSummary)
      Formals[static_cast<size_t>(M.MainId)].assign(
          M.Funcs[static_cast<size_t>(M.MainId)].NumParams, Interval::top());

    std::vector<FuncId> Work;
    std::vector<char> Queued(N, 0);
    RangeAnalysis::Env E;
    // Reached is distinct from "formals changed": a zero-parameter callee
    // (or one whose joined args are already subsumed) never changes its
    // formal vector, but it must still be analyzed once so the calls in
    // its own body propagate onward.
    std::vector<char> Reached(N, 0);
    if (M.MainId >= 0 && static_cast<size_t>(M.MainId) < N) {
      Work.push_back(M.MainId);
      Queued[static_cast<size_t>(M.MainId)] = 1;
      Reached[static_cast<size_t>(M.MainId)] = 1;
    }
    while (!Work.empty()) {
      FuncId FI = Work.back();
      Work.pop_back();
      Queued[static_cast<size_t>(FI)] = 0;
      if (!Facts.Funcs[static_cast<size_t>(FI)].HasSummary)
        continue;
      const Function &F = M.Funcs[static_cast<size_t>(FI)];
      // Analyze under the caller's current formals.
      Facts.Funcs[static_cast<size_t>(FI)].Params =
          Formals[static_cast<size_t>(FI)];
      const FunctionShape &Shape = *Shapes[static_cast<size_t>(FI)];
      RangeAnalysis Ranges(F, Shape.G, Shape.Headers, M, Facts);
      for (size_t B = 0; B != F.Blocks.size(); ++B) {
        if (!Ranges.isReachable(static_cast<BlockId>(B)))
          continue;
        E = Ranges.blockIn(static_cast<BlockId>(B));
        for (const Instr &I : F.Blocks[B].Instrs) {
          if (I.Op == Opcode::Call && I.Callee >= 0 &&
              static_cast<size_t>(I.Callee) < N &&
              Facts.Funcs[static_cast<size_t>(I.Callee)].HasSummary) {
            std::vector<Interval> &Dest =
                Formals[static_cast<size_t>(I.Callee)];
            bool ArgChanged = false;
            for (size_t A = 0; A != Dest.size() && A < I.Args.size(); ++A) {
              Interval J = join(Dest[A], RangeAnalysis::get(E, I.Args[A]));
              if (Updates[static_cast<size_t>(I.Callee)] >= 3)
                J = widen(Dest[A], J);
              if (J != Dest[A]) {
                Dest[A] = J;
                ArgChanged = true;
              }
            }
            bool FirstVisit = !Reached[static_cast<size_t>(I.Callee)];
            Reached[static_cast<size_t>(I.Callee)] = 1;
            if (ArgChanged)
              ++Updates[static_cast<size_t>(I.Callee)];
            if ((ArgChanged || FirstVisit) &&
                !Queued[static_cast<size_t>(I.Callee)]) {
              Queued[static_cast<size_t>(I.Callee)] = 1;
              Work.push_back(I.Callee);
            }
          }
          Ranges.step(I, E);
        }
      }
    }
    for (size_t FI = 0; FI != N; ++FI)
      if (Facts.Funcs[FI].HasSummary)
        Facts.Funcs[FI].Params = std::move(Formals[FI]);
  }

  // Phase C: final bottom-up pass with the formals in place — returns and
  // purity tighten, and each function's final evaluation records its
  // per-site argument facts and goes to the visitor.
  for (const std::vector<int> &C : Members)
    if (!C.empty())
      solveComponent(C, IsRecursive(C), Shapes, M, Facts, /*Final=*/true,
                     Visit);

  return Facts;
}

//===----------------------------------------------------------------------===//
// RangeFactChecker
//===----------------------------------------------------------------------===//

RangeFactChecker::RangeFactChecker(const Module &M, ModuleRangeFacts Facts)
    : Facts(std::move(Facts)) {
  FuncNames.reserve(M.Funcs.size());
  for (const Function &F : M.Funcs)
    FuncNames.push_back(F.Name);
}

void RangeFactChecker::violate(std::string Message) {
  if (!Seen.insert(Message).second)
    return;
  if (Violations.size() < 64)
    Violations.push_back(std::move(Message));
}

void RangeFactChecker::onEnter(FuncId F, const int64_t *Args, size_t N) {
  const FunctionRangeSummary *S =
      F >= 0 && static_cast<size_t>(F) < Facts.Funcs.size()
          ? &Facts.Funcs[static_cast<size_t>(F)]
          : nullptr;
  ShadowFrame Frame{F, false, false, false};
  if (S && S->HasSummary) {
    Frame.NoRead = !S->ReadsGlobals;
    Frame.NoWrite = !S->WritesGlobals;
    Frame.NoTrap = !S->MayTrap;
    if (S->Params.size() == N)
      for (size_t I = 0; I != N; ++I) {
        ++Checks;
        if (!S->Params[I].contains(Args[I]))
          violate("param " + std::to_string(I) + " of '" +
                  FuncNames[static_cast<size_t>(F)] + "' = " +
                  std::to_string(Args[I]) + " outside proven " +
                  renderInterval(S->Params[I]));
      }
  }
  NoReadDepth += Frame.NoRead;
  NoWriteDepth += Frame.NoWrite;
  NoTrapDepth += Frame.NoTrap;
  Stack.push_back(Frame);
}

void RangeFactChecker::onSiteArg(uint32_t Site, size_t Idx, int64_t V) {
  if (Site >= Facts.SiteArgs.size() || !Facts.SiteHasFact[Site])
    return;
  const std::vector<Interval> &Args = Facts.SiteArgs[Site];
  if (Idx >= Args.size())
    return;
  ++Checks;
  if (!Args[Idx].contains(V))
    violate("site " + std::to_string(Site) + " arg " + std::to_string(Idx) +
            " = " + std::to_string(V) + " outside proven " +
            renderInterval(Args[Idx]));
}

void RangeFactChecker::onRet(FuncId F, int64_t V) {
  const FunctionRangeSummary *S =
      F >= 0 && static_cast<size_t>(F) < Facts.Funcs.size()
          ? &Facts.Funcs[static_cast<size_t>(F)]
          : nullptr;
  if (S && S->HasSummary && !S->Ret.isTop()) {
    ++Checks;
    if (!S->Ret.contains(V))
      violate("'" + FuncNames[static_cast<size_t>(F)] + "' returned " +
              std::to_string(V) + " outside proven " + renderInterval(S->Ret));
  }
  if (Stack.empty()) {
    violate("return from '" +
            (F >= 0 && static_cast<size_t>(F) < FuncNames.size()
                 ? FuncNames[static_cast<size_t>(F)]
                 : std::string("?")) +
            "' with an empty shadow stack");
    return;
  }
  ShadowFrame Top = Stack.back();
  Stack.pop_back();
  NoReadDepth -= Top.NoRead;
  NoWriteDepth -= Top.NoWrite;
  NoTrapDepth -= Top.NoTrap;
  if (Top.Func != F)
    violate("shadow stack mismatch: returned from '" +
            (F >= 0 && static_cast<size_t>(F) < FuncNames.size()
                 ? FuncNames[static_cast<size_t>(F)]
                 : std::string("?")) +
            "' but entered '" +
            (Top.Func >= 0 && static_cast<size_t>(Top.Func) < FuncNames.size()
                 ? FuncNames[static_cast<size_t>(Top.Func)]
                 : std::string("?")) +
            "'");
}

void RangeFactChecker::onLoad(int64_t Addr) {
  if (NoReadDepth == 0 || !inGlobals(Addr))
    return;
  ++Checks;
  for (const ShadowFrame &Fr : Stack)
    if (Fr.NoRead)
      violate("global load at " + std::to_string(Addr) +
              " under '" + FuncNames[static_cast<size_t>(Fr.Func)] +
              "' proven to read no globals");
}

void RangeFactChecker::onStore(int64_t Addr) {
  if (NoWriteDepth == 0 || !inGlobals(Addr))
    return;
  ++Checks;
  for (const ShadowFrame &Fr : Stack)
    if (Fr.NoWrite)
      violate("global store at " + std::to_string(Addr) +
              " under '" + FuncNames[static_cast<size_t>(Fr.Func)] +
              "' proven to write no globals");
}

void RangeFactChecker::onTrap(const std::string &Message) {
  if (NoTrapDepth == 0)
    return;
  ++Checks;
  for (const ShadowFrame &Fr : Stack)
    if (Fr.NoTrap)
      violate("trap '" + Message + "' under '" +
              FuncNames[static_cast<size_t>(Fr.Func)] +
              "' proven to never trap");
}

void RangeFactChecker::onRunEnd() {
  Stack.clear();
  NoReadDepth = NoWriteDepth = NoTrapDepth = 0;
}

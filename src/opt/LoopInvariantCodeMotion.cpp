//===- opt/LoopInvariantCodeMotion.cpp -----------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/LoopInvariantCodeMotion.h"

#include "analysis/Cfg.h"
#include "analysis/Dataflow.h"
#include "analysis/LoopInfo.h"
#include "analysis/RangeAnalysis.h"

#include <algorithm>
#include <optional>

using namespace impact;

namespace {

/// Retargets every branch edge of \p Term equal to \p From onto \p To.
void retargetTerminator(Instr &Term, BlockId From, BlockId To) {
  if (Term.Op == Opcode::Jump || Term.Op == Opcode::CondBr) {
    if (Term.Target == From)
      Term.Target = To;
    if (Term.Op == Opcode::CondBr && Term.Target2 == From)
      Term.Target2 = To;
  }
}

/// Hoists from the first loop that admits any motion; returns true when a
/// change was made (analyses are stale afterwards — the caller recomputes
/// and calls again).
bool hoistOneRound(Function &F, const RangeContext *Ranges) {
  LoopInfo Info = computeLoopInfo(F);
  if (Info.Loops.empty())
    return false;
  Cfg G(F);
  LivenessAnalysis Live = computeLiveness(F, G);
  std::optional<RangeAnalysis> RA;
  if (Ranges)
    RA.emplace(F, G, *Ranges);

  for (const Loop &L : Info.Loops) {
    if (!L.Reducible || !G.isReachable(L.Header))
      continue;

    // In-loop definition counts; hoisting decrements, so later candidates
    // may chain on a value hoisted earlier this round.
    std::vector<uint32_t> DefCount(F.NumRegs, 0);
    for (BlockId B : L.Blocks)
      for (const Instr &I : F.Blocks[static_cast<size_t>(B)].Instrs) {
        Reg D = instrDef(I);
        if (D != kNoReg && static_cast<uint32_t>(D) < F.NumRegs)
          DefCount[static_cast<size_t>(D)] += 1;
      }

    const BitVector &HeaderLiveIn =
        Live.LiveIn[static_cast<size_t>(L.Header)];
    auto IsInvariantOperand = [&](Reg R) {
      return R == kNoReg || static_cast<uint32_t>(R) >= F.NumRegs ||
             DefCount[static_cast<size_t>(R)] == 0;
    };

    // Interval facts license three extra hoist classes. An invariant
    // operand holds the same value throughout the loop and in the
    // preheader (its preheader value flows into the header join), so a
    // proof at the header's entry state covers the hoisted execution.
    const bool RangeOk = RA && RA->isReachable(L.Header);
    RangeAnalysis::Env HIn;
    if (RangeOk)
      HIn = RA->blockIn(L.Header);
    const ModuleRangeFacts *MF = Ranges ? Ranges->Facts : nullptr;
    // The load rule needs the loop body free of stores and calls, so the
    // loaded word cannot change across iterations.
    bool LoopWritesOrCalls = false;
    if (RangeOk)
      for (BlockId B : L.Blocks)
        for (const Instr &I : F.Blocks[static_cast<size_t>(B)].Instrs)
          if (I.Op == Opcode::Store || I.Op == Opcode::Call ||
              I.Op == Opcode::CallPtr)
            LoopWritesOrCalls = true;

    // Select candidates in program order (block asc, instr asc): an
    // instruction whose operand is defined by a not-yet-hoisted candidate
    // simply waits for the next round, which keeps preheader order
    // consistent with dependency order.
    std::vector<Instr> Hoisted;
    for (BlockId B : L.Blocks) {
      BasicBlock &Blk = F.Blocks[static_cast<size_t>(B)];
      std::vector<Instr> Kept;
      Kept.reserve(Blk.Instrs.size());
      // For the call rule: whether everything so far in the header block
      // is pure and trap-free, so entering the header guarantees the call
      // would have executed (the preheader's one execution replaces a
      // guaranteed first-iteration execution).
      bool HeaderPrefixPure = B == L.Header;
      for (const Instr &I : Blk.Instrs) {
        Reg D = I.Dst;
        bool BaseOk = !I.isTerminator() && D != kNoReg &&
                      static_cast<uint32_t>(D) < F.NumRegs &&
                      DefCount[static_cast<size_t>(D)] == 1 &&
                      !HeaderLiveIn.test(static_cast<size_t>(D));
        // Pure opcodes are safe to execute speculatively in a preheader
        // even when the loop would run zero iterations. Div/Rem can trap,
        // Load can observe memory the loop stores to, calls do anything:
        // those need the range-licensed rules below.
        bool Hoist = BaseOk && isPure(I.Op) &&
                     IsInvariantOperand(I.Src1) &&
                     IsInvariantOperand(I.Src2);
        // Range-licensed classes: only from blocks range analysis itself
        // reaches — hoisting from a range-unreachable block would execute
        // work the reachable-only purity summaries never counted.
        if (!Hoist && BaseOk && RangeOk && RA->isReachable(B)) {
          switch (I.Op) {
          case Opcode::Div:
          case Opcode::Rem: {
            // Proven-safe division: divisor excludes zero (and no
            // INT64_MIN / -1) at the header entry state.
            Interval Dividend = RangeAnalysis::get(HIn, I.Src1);
            Interval Divisor = RangeAnalysis::get(HIn, I.Src2);
            Hoist = IsInvariantOperand(I.Src1) &&
                    IsInvariantOperand(I.Src2) && !Dividend.isBottom() &&
                    !Divisor.isBottom() && !divMayTrap(Dividend, Divisor);
            break;
          }
          case Opcode::Load: {
            // Proven in-bounds global load from a body that cannot change
            // the loaded word: never traps, and yields the same value on
            // every iteration.
            if (!MF || LoopWritesOrCalls || !IsInvariantOperand(I.Src1))
              break;
            Interval Addr = RangeAnalysis::get(HIn, I.Src1);
            Hoist = !Addr.isBottom() && Addr.Lo >= MF->GlobalLo &&
                    Addr.Hi < MF->GlobalHi;
            break;
          }
          case Opcode::Call: {
            // A provably pure, trap-free, terminating direct callee whose
            // header-block call is guaranteed to execute each iteration:
            // one preheader execution replaces them all.
            if (!MF || !HeaderPrefixPure || I.Callee == kNoFunc ||
                static_cast<size_t>(I.Callee) >= MF->Funcs.size())
              break;
            const FunctionRangeSummary &CS =
                MF->Funcs[static_cast<size_t>(I.Callee)];
            if (!CS.HasSummary || CS.ReadsGlobals || CS.WritesGlobals ||
                CS.MayTrap || !CS.Terminates)
              break;
            Hoist = true;
            for (Reg A : I.Args)
              Hoist &= IsInvariantOperand(A);
            break;
          }
          default:
            break;
          }
        }
        HeaderPrefixPure &= isPure(I.Op);
        if (Hoist) {
          Hoisted.push_back(I);
          DefCount[static_cast<size_t>(D)] = 0;
        } else {
          Kept.push_back(I);
        }
      }
      if (Kept.size() != Blk.Instrs.size())
        Blk.Instrs = std::move(Kept);
    }
    if (Hoisted.empty())
      continue;

    BlockId Header = L.Header;
    if (Header == 0) {
      // The function entry is the header: the entry block itself becomes
      // the preheader. Its body moves to a fresh block and every member's
      // branch onto the old header follows it there; outside code still
      // enters at block 0 and so runs the hoisted instructions first.
      BlockId NewHeader = F.addBlock();
      BasicBlock &EntryBlk = F.Blocks[0];
      F.Blocks[static_cast<size_t>(NewHeader)].Instrs =
          std::move(EntryBlk.Instrs);
      EntryBlk.Instrs = std::move(Hoisted);
      EntryBlk.Instrs.push_back(Instr::makeJump(NewHeader));
      for (BlockId M : L.Blocks) {
        BlockId Actual = M == 0 ? NewHeader : M;
        BasicBlock &Blk = F.Blocks[static_cast<size_t>(Actual)];
        if (!Blk.Instrs.empty())
          retargetTerminator(Blk.Instrs.back(), 0, NewHeader);
      }
      return true;
    }

    // A unique outside predecessor that just jumps to the header already
    // is a preheader; otherwise splice a fresh one onto the outside edges
    // (reducibility guarantees they all enter at the header).
    std::vector<BlockId> OutsidePreds;
    for (BlockId P : G.getPredecessors(Header))
      if (!L.contains(P))
        OutsidePreds.push_back(P);
    if (OutsidePreds.size() == 1) {
      BasicBlock &Pred =
          F.Blocks[static_cast<size_t>(OutsidePreds.front())];
      if (!Pred.Instrs.empty() &&
          Pred.Instrs.back().Op == Opcode::Jump &&
          Pred.Instrs.back().Target == Header) {
        Pred.Instrs.insert(Pred.Instrs.end() - 1,
                           Hoisted.begin(), Hoisted.end());
        return true;
      }
    }
    BlockId Pre = F.addBlock();
    BasicBlock &PreBlk = F.Blocks[static_cast<size_t>(Pre)];
    PreBlk.Instrs = std::move(Hoisted);
    PreBlk.Instrs.push_back(Instr::makeJump(Header));
    for (BlockId P : OutsidePreds) {
      BasicBlock &Blk = F.Blocks[static_cast<size_t>(P)];
      if (!Blk.Instrs.empty())
        retargetTerminator(Blk.Instrs.back(), Header, Pre);
    }
    return true;
  }
  return false;
}

} // namespace

bool impact::runLoopInvariantCodeMotion(Function &F,
                                        const RangeContext *Ranges) {
  if (F.Blocks.empty())
    return false;
  bool Changed = false;
  // Each round strictly lowers the total nesting depth of the remaining
  // instructions, so this converges; analyses are rebuilt per round
  // because hoisting moves blocks and edges.
  while (hoistOneRound(F, Ranges))
    Changed = true;
  return Changed;
}

bool impact::runLoopInvariantCodeMotion(Module &M) {
  bool Changed = false;
  for (Function &F : M.Funcs)
    if (!F.IsExternal)
      Changed |= runLoopInvariantCodeMotion(F, nullptr);
  return Changed;
}

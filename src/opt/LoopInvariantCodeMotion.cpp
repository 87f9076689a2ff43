//===- opt/LoopInvariantCodeMotion.cpp -----------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/LoopInvariantCodeMotion.h"

#include "analysis/Cfg.h"
#include "analysis/Dataflow.h"
#include "analysis/LoopInfo.h"

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
bool hoistOneRound(Function &F) {
  LoopInfo Info = computeLoopInfo(F);
  if (Info.Loops.empty())
    return false;
  Cfg G(F);
  LivenessAnalysis Live = computeLiveness(F, G);

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

    // Select candidates in program order (block asc, instr asc): an
    // instruction whose operand is defined by a not-yet-hoisted candidate
    // simply waits for the next round, which keeps preheader order
    // consistent with dependency order.
    std::vector<Instr> Hoisted;
    for (BlockId B : L.Blocks) {
      BasicBlock &Blk = F.Blocks[static_cast<size_t>(B)];
      std::vector<Instr> Kept;
      Kept.reserve(Blk.Instrs.size());
      for (const Instr &I : Blk.Instrs) {
        Reg D = I.Dst;
        // Pure opcodes are safe to execute speculatively in a preheader
        // even when the loop would run zero iterations. Div/Rem can trap,
        // Load can observe memory the loop stores to, calls do anything.
        bool Hoist = !I.isTerminator() && D != kNoReg &&
                     static_cast<uint32_t>(D) < F.NumRegs &&
                     DefCount[static_cast<size_t>(D)] == 1 &&
                     !HeaderLiveIn.test(static_cast<size_t>(D)) &&
                     isPure(I.Op) && IsInvariantOperand(I.Src1) &&
                     IsInvariantOperand(I.Src2);
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

bool impact::runLoopInvariantCodeMotion(Function &F) {
  if (F.Blocks.empty())
    return false;
  bool Changed = false;
  // Each round strictly lowers the total nesting depth of the remaining
  // instructions, so this converges; analyses are rebuilt per round
  // because hoisting moves blocks and edges.
  while (hoistOneRound(F))
    Changed = true;
  return Changed;
}

bool impact::runLoopInvariantCodeMotion(Module &M) {
  bool Changed = false;
  for (Function &F : M.Funcs)
    if (!F.IsExternal)
      Changed |= runLoopInvariantCodeMotion(F);
  return Changed;
}

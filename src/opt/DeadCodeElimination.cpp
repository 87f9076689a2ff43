//===- opt/DeadCodeElimination.cpp ---------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/DeadCodeElimination.h"

#include <vector>

using namespace impact;

namespace {

/// True when deleting the instruction cannot change observable behaviour
/// (given its destination is dead): pure operators, and loads (see the
/// header). A dead div/rem stays, because its trap is observable.
bool isRemovableWhenDead(const Instr &I) {
  return I.Dst != kNoReg && (isPure(I.Op) || I.Op == Opcode::Load);
}

void countUses(const Function &F, std::vector<unsigned> &Uses) {
  Uses.assign(F.NumRegs, 0);
  auto Count = [&](Reg R) {
    if (R != kNoReg)
      ++Uses[static_cast<size_t>(R)];
  };
  for (const BasicBlock &B : F.Blocks) {
    for (const Instr &I : B.Instrs) {
      Count(I.Src1);
      Count(I.Src2);
      for (Reg A : I.Args)
        Count(A);
    }
  }
}

} // namespace

bool impact::runDeadCodeElimination(Function &F) {
  bool EverChanged = false;
  bool Changed = true;
  std::vector<unsigned> Uses;
  while (Changed) {
    Changed = false;
    countUses(F, Uses);
    for (BasicBlock &B : F.Blocks) {
      std::vector<Instr> Kept;
      Kept.reserve(B.Instrs.size());
      for (Instr &I : B.Instrs) {
        if (isRemovableWhenDead(I) &&
            Uses[static_cast<size_t>(I.Dst)] == 0) {
          Changed = true;
          continue;
        }
        Kept.push_back(std::move(I));
      }
      B.Instrs = std::move(Kept);
    }
    EverChanged |= Changed;
  }
  return EverChanged;
}

bool impact::runDeadCodeElimination(Module &M) {
  bool Changed = false;
  for (Function &F : M.Funcs)
    if (!F.IsExternal)
      Changed |= runDeadCodeElimination(F);
  return Changed;
}

//===- opt/ConstantFolding.cpp ------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/ConstantFolding.h"

#include <optional>
#include <unordered_map>

using namespace impact;

bool impact::runConstantFolding(Function &F) {
  bool Changed = false;
  for (BasicBlock &B : F.Blocks) {
    // Known constant value per register, valid from its definition point to
    // the next redefinition within this block.
    std::unordered_map<Reg, int64_t> Known;
    auto Lookup = [&](Reg R) -> std::optional<int64_t> {
      auto It = Known.find(R);
      if (It == Known.end())
        return std::nullopt;
      return It->second;
    };

    for (Instr &I : B.Instrs) {
      if (I.Op == Opcode::LdImm) {
        Known[I.Dst] = I.Imm;
        continue;
      }
      if (I.Op == Opcode::CondBr) {
        if (auto V = Lookup(I.Src1)) {
          I = Instr::makeJump(*V != 0 ? I.Target : I.Target2);
          Changed = true;
        }
        continue;
      }

      // Operators over known operands become ld_imm; a binary operator
      // that would trap stays, so the runtime still raises the trap.
      std::optional<int64_t> Folded;
      if (isUnaryOp(I.Op)) {
        if (auto V = Lookup(I.Src1))
          Folded = evalUnary(I.Op, *V);
      } else if (isBinaryOp(I.Op)) {
        auto L = Lookup(I.Src1);
        auto R = Lookup(I.Src2);
        if (L && R)
          Folded = evalBinary(I.Op, *L, *R);
      }
      if (Folded) {
        I = Instr::makeLdImm(I.Dst, *Folded);
        Known[I.Dst] = *Folded;
        Changed = true;
        continue;
      }

      // Any other register definition invalidates tracked knowledge.
      if (I.Dst != kNoReg)
        Known.erase(I.Dst);
    }
  }
  return Changed;
}

bool impact::runConstantFolding(Module &M) {
  bool Changed = false;
  for (Function &F : M.Funcs)
    if (!F.IsExternal)
      Changed |= runConstantFolding(F);
  return Changed;
}

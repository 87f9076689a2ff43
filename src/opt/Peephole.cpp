//===- opt/Peephole.cpp --------------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/Peephole.h"


#include <optional>
#include <unordered_map>

using namespace impact;

namespace {

/// Shift amount k when \p V is a power of two >= 2 under the IL's wrapping
/// two's-complement arithmetic (single bit set as uint64; includes
/// INT64_MIN == 2^63: x * 2^63 wraps to x << 63).
std::optional<int64_t> powerOfTwoShift(int64_t V) {
  uint64_t U = static_cast<uint64_t>(V);
  if (U < 2 || (U & (U - 1)) != 0)
    return std::nullopt;
  int64_t K = 0;
  while ((U & 1) == 0) {
    U >>= 1;
    ++K;
  }
  return K;
}

} // namespace

bool impact::runPeephole(Function &F) {
  bool Changed = false;
  for (BasicBlock &B : F.Blocks) {
    // Known constant value per register and active copies, both valid from
    // the definition point to the next redefinition within this block.
    std::unordered_map<Reg, int64_t> Known;
    std::unordered_map<Reg, Reg> Copies;
    auto Lookup = [&](Reg R) -> std::optional<int64_t> {
      auto It = Known.find(R);
      if (It != Known.end())
        return It->second;
      return std::nullopt;
    };
    // True when the two registers provably hold the same value here.
    auto SameValue = [&](Reg A, Reg C) {
      if (A == C)
        return true;
      auto It = Copies.find(A);
      if (It != Copies.end() && It->second == C)
        return true;
      It = Copies.find(C);
      return It != Copies.end() && It->second == A;
    };
    auto InvalidateDef = [&](Reg D) {
      if (D == kNoReg)
        return;
      Known.erase(D);
      Copies.erase(D);
      for (auto It = Copies.begin(); It != Copies.end();) {
        if (It->second == D)
          It = Copies.erase(It);
        else
          ++It;
      }
    };

    std::vector<Instr> Kept;
    Kept.reserve(B.Instrs.size());
    for (Instr I : B.Instrs) {
      auto Rewrite = [&](Instr Replacement) {
        I = std::move(Replacement);
        Changed = true;
      };

      // Rewrite step: exact algebraic identities and strength reduction.
      auto L = Lookup(I.Src1);
      auto R = Lookup(I.Src2);
      switch (I.Op) {
      case Opcode::Add:
        if (R && *R == 0)
          Rewrite(Instr::makeMov(I.Dst, I.Src1));
        else if (L && *L == 0)
          Rewrite(Instr::makeMov(I.Dst, I.Src2));
        break;
      case Opcode::Sub:
        if (SameValue(I.Src1, I.Src2))
          Rewrite(Instr::makeLdImm(I.Dst, 0));
        else if (R && *R == 0)
          Rewrite(Instr::makeMov(I.Dst, I.Src1));
        else if (L && *L == 0)
          Rewrite(Instr::makeUnary(Opcode::Neg, I.Dst, I.Src2));
        break;
      case Opcode::Mul:
        if ((R && *R == 0) || (L && *L == 0)) {
          Rewrite(Instr::makeLdImm(I.Dst, 0));
        } else if (R && *R == 1) {
          Rewrite(Instr::makeMov(I.Dst, I.Src1));
        } else if (L && *L == 1) {
          Rewrite(Instr::makeMov(I.Dst, I.Src2));
        } else if (R && !L) {
          if (auto K = powerOfTwoShift(*R)) {
            Reg Amount = F.addReg();
            Kept.push_back(Instr::makeLdImm(Amount, *K));
            Known[Amount] = *K;
            Rewrite(Instr::makeBinary(Opcode::Shl, I.Dst, I.Src1, Amount));
          }
        } else if (L && !R) {
          if (auto K = powerOfTwoShift(*L)) {
            Reg Amount = F.addReg();
            Kept.push_back(Instr::makeLdImm(Amount, *K));
            Known[Amount] = *K;
            Rewrite(Instr::makeBinary(Opcode::Shl, I.Dst, I.Src2, Amount));
          }
        }
        break;
      case Opcode::Div:
        // x / -1 is left alone: INT64_MIN / -1 traps while neg wraps.
        if (R && *R == 1)
          Rewrite(Instr::makeMov(I.Dst, I.Src1));
        break;
      case Opcode::Rem:
        // x % 1 == 0 for every x under C's truncating division.
        if (R && *R == 1)
          Rewrite(Instr::makeLdImm(I.Dst, 0));
        break;
      case Opcode::Shl:
      case Opcode::Shr:
        // Shift amounts are masked to 6 bits at runtime.
        if (R && (*R & 63) == 0)
          Rewrite(Instr::makeMov(I.Dst, I.Src1));
        break;
      case Opcode::And:
        if (SameValue(I.Src1, I.Src2))
          Rewrite(Instr::makeMov(I.Dst, I.Src1));
        else if ((R && *R == 0) || (L && *L == 0))
          Rewrite(Instr::makeLdImm(I.Dst, 0));
        else if (R && *R == -1)
          Rewrite(Instr::makeMov(I.Dst, I.Src1));
        else if (L && *L == -1)
          Rewrite(Instr::makeMov(I.Dst, I.Src2));
        break;
      case Opcode::Or:
        if (SameValue(I.Src1, I.Src2))
          Rewrite(Instr::makeMov(I.Dst, I.Src1));
        else if ((R && *R == -1) || (L && *L == -1))
          Rewrite(Instr::makeLdImm(I.Dst, -1));
        else if (R && *R == 0)
          Rewrite(Instr::makeMov(I.Dst, I.Src1));
        else if (L && *L == 0)
          Rewrite(Instr::makeMov(I.Dst, I.Src2));
        break;
      case Opcode::Xor:
        if (SameValue(I.Src1, I.Src2))
          Rewrite(Instr::makeLdImm(I.Dst, 0));
        else if (R && *R == 0)
          Rewrite(Instr::makeMov(I.Dst, I.Src1));
        else if (L && *L == 0)
          Rewrite(Instr::makeMov(I.Dst, I.Src2));
        break;
      case Opcode::CmpEq:
      case Opcode::CmpLe:
      case Opcode::CmpGe:
        if (SameValue(I.Src1, I.Src2))
          Rewrite(Instr::makeLdImm(I.Dst, 1));
        break;
      case Opcode::CmpNe:
      case Opcode::CmpLt:
      case Opcode::CmpGt:
        if (SameValue(I.Src1, I.Src2))
          Rewrite(Instr::makeLdImm(I.Dst, 0));
        break;
      default:
        break;
      }

      // Bookkeeping step: drop redundant moves, track constants/copies,
      // invalidate on redefinition.
      if (I.Op == Opcode::Mov) {
        if (SameValue(I.Dst, I.Src1)) {
          Changed = true;
          continue; // the destination already holds this value
        }
        Reg Src = I.Src1;
        auto V = Lookup(Src);
        InvalidateDef(I.Dst);
        Copies[I.Dst] = Src;
        if (V)
          Known[I.Dst] = *V;
        Kept.push_back(I);
        continue;
      }
      if (I.Op == Opcode::LdImm) {
        InvalidateDef(I.Dst);
        Known[I.Dst] = I.Imm;
        Kept.push_back(I);
        continue;
      }
      InvalidateDef(I.Dst);
      Kept.push_back(I);
    }
    B.Instrs = std::move(Kept);
  }
  return Changed;
}

bool impact::runPeephole(Module &M) {
  bool Changed = false;
  for (Function &F : M.Funcs)
    if (!F.IsExternal)
      Changed |= runPeephole(F);
  return Changed;
}

//===- ir/Opcode.h - The one definition of IL opcode semantics -------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every fact about an IL opcode lives here: its mnemonic, its operand
/// shape, whether it is pure, may trap, ends a block or is a call, and —
/// for the unary, binary and compare operators — the value it computes or
/// the trap it raises. The printer, reader and verifier, constant folding,
/// DCE and LICM, the analyzer, the walker and the VM all read these rows,
/// so no engine or pass can disagree with another about an operator.
///
/// The rows are an X-macro, X(Name, Mnemonic, Kind, Flags), so that code
/// needing one statement per opcode (the Opcode enum, the VM's tokens and
/// handlers, the walker's cases) is generated from the same list. A
/// consumer generating code for some kinds only pastes the Kind column onto
/// its own macro name (e.g. `HANDLER_##Kind(Name)`) and defines that macro
/// for each of the four kinds.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_IR_OPCODE_H
#define IMPACT_IR_OPCODE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>

/// Opcodes that fall through to the next instruction and are not calls.
/// Each has a VM token of the same name and number (vm/Bytecode.h).
#define IMPACT_DATA_OPCODES(X)                                                 \
  X(Mov, "mov", Unary, kOpPure)         /* Dst = Src1 */                       \
  X(LdImm, "ld_imm", Other, kOpPure)    /* Dst = Imm */                        \
  X(Add, "add", Binary, kOpPure)                                               \
  X(Sub, "sub", Binary, kOpPure)                                               \
  X(Mul, "mul", Binary, kOpPure)                                               \
  X(Div, "div", Binary, kOpMayTrap)                                            \
  X(Rem, "rem", Binary, kOpMayTrap)                                            \
  X(Shl, "shl", Binary, kOpPure)                                               \
  X(Shr, "shr", Binary, kOpPure)                                               \
  X(And, "and", Binary, kOpPure)                                               \
  X(Or, "or", Binary, kOpPure)                                                 \
  X(Xor, "xor", Binary, kOpPure)                                               \
  X(Neg, "neg", Unary, kOpPure)                                                \
  X(Not, "not", Unary, kOpPure)                                                \
  X(CmpEq, "cmp_eq", Compare, kOpPure)                                         \
  X(CmpNe, "cmp_ne", Compare, kOpPure)                                         \
  X(CmpLt, "cmp_lt", Compare, kOpPure)                                         \
  X(CmpLe, "cmp_le", Compare, kOpPure)                                         \
  X(CmpGt, "cmp_gt", Compare, kOpPure)                                         \
  X(CmpGe, "cmp_ge", Compare, kOpPure)                                         \
  X(Load, "load", Other, kOpMayTrap)        /* Dst = Mem[Src1] */              \
  X(Store, "store", Other, kOpMayTrap)      /* Mem[Src1] = Src2 */             \
  X(FrameAddr, "frame_addr", Other, kOpPure)   /* Dst = FP + Imm */            \
  X(GlobalAddr, "global_addr", Other, kOpPure) /* Dst = &global #Imm */        \
  X(FuncAddr, "func_addr", Other, kOpPure) /* Dst = encodeFuncAddr(Callee) */

/// Calls (execution continues in the same block; every call carries a
/// module-unique SiteId) and the block terminators.
#define IMPACT_CONTROL_OPCODES(X)                                              \
  X(Call, "call", Other, kOpCall | kOpMayTrap) /* Dst? = Callee(Args) */       \
  X(CallPtr, "call_ptr", Other, kOpCall | kOpMayTrap) /* Dst? = (*Src1)() */   \
  X(Jump, "jump", Other, kOpTerminator)   /* goto Target */                    \
  X(CondBr, "cond_br", Other, kOpTerminator) /* Src1 ? Target : Target2 */     \
  X(Ret, "ret", Other, kOpTerminator)     /* return Src1 (kNoReg: void) */

#define IMPACT_OPCODES(X) IMPACT_DATA_OPCODES(X) IMPACT_CONTROL_OPCODES(X)

namespace impact {

enum class Opcode {
#define IMPACT_OPCODE_ENUM(Name, Mnemonic, Kind, Flags) Name,
  IMPACT_OPCODES(IMPACT_OPCODE_ENUM)
#undef IMPACT_OPCODE_ENUM
};

/// The operand shape and value class of an opcode.
enum class OpKind : uint8_t {
  Unary,   ///< Dst = op Src1, computed by evalUnary.
  Binary,  ///< Dst = Src1 op Src2, computed by evalBinary.
  Compare, ///< Dst = (Src1 op Src2) ? 1 : 0, computed by evalBinary.
  Other,   ///< Its own operands: immediates, memory, calls, branches.
};

/// No side effect and cannot trap: the result depends only on the operands
/// (and, for frame_addr, the frame), so the instruction may be deleted when
/// its result is dead or executed speculatively.
inline constexpr uint8_t kOpPure = 1;
/// Can stop the program: div/rem on a zero divisor or INT64_MIN / -1, a
/// load or store of an unmapped address, any call.
inline constexpr uint8_t kOpMayTrap = 2;
/// Ends a basic block (Jump, CondBr, Ret).
inline constexpr uint8_t kOpTerminator = 4;
/// Transfers to another function and continues in the same block.
inline constexpr uint8_t kOpCall = 8;

struct OpInfo {
  const char *Mnemonic;
  OpKind Kind;
  uint8_t Flags;
};

inline constexpr OpInfo kOpTable[] = {
#define IMPACT_OPCODE_INFO(Name, Mnemonic, Kind, Flags)                        \
  {Mnemonic, OpKind::Kind, Flags},
    IMPACT_OPCODES(IMPACT_OPCODE_INFO)
#undef IMPACT_OPCODE_INFO
};

inline constexpr size_t kNumOpcodes = sizeof(kOpTable) / sizeof(kOpTable[0]);
static_assert(kNumOpcodes == static_cast<size_t>(Opcode::Ret) + 1,
              "one table row per opcode");

constexpr const OpInfo &getOpInfo(Opcode Op) {
  return kOpTable[static_cast<size_t>(Op)];
}

/// Returns the IL mnemonic ("add", "cond_br", ...).
constexpr const char *getOpcodeName(Opcode Op) {
  return getOpInfo(Op).Mnemonic;
}

constexpr bool isUnaryOp(Opcode Op) {
  return getOpInfo(Op).Kind == OpKind::Unary;
}
/// True for arithmetic binary operators and compares (both take Src1 and
/// Src2 and are computed by evalBinary).
constexpr bool isBinaryOp(Opcode Op) {
  OpKind K = getOpInfo(Op).Kind;
  return K == OpKind::Binary || K == OpKind::Compare;
}
constexpr bool isCompareOp(Opcode Op) {
  return getOpInfo(Op).Kind == OpKind::Compare;
}
constexpr bool isPure(Opcode Op) { return getOpInfo(Op).Flags & kOpPure; }
constexpr bool mayTrap(Opcode Op) { return getOpInfo(Op).Flags & kOpMayTrap; }
/// Returns true for Jump/CondBr/Ret.
constexpr bool isTerminator(Opcode Op) {
  return getOpInfo(Op).Flags & kOpTerminator;
}
/// Returns true for Call/CallPtr.
constexpr bool isCall(Opcode Op) { return getOpInfo(Op).Flags & kOpCall; }
/// Returns true for Jump/CondBr — the paper's "control transfers other than
/// function call/return" (Table 1's control column).
constexpr bool isControlTransfer(Opcode Op) {
  return isTerminator(Op) && Op != Opcode::Ret;
}

/// The value of binary or compare opcode \p Op over \p L and \p R, or
/// nullopt when the operation traps (a zero divisor, or INT64_MIN / -1 for
/// div and rem). Arithmetic wraps in two's complement; shift counts are
/// taken modulo 64 and shr is arithmetic; compares yield 0 or 1.
///
/// The engines call this with a literal opcode per handler, so the switch
/// folds away and each handler keeps one dispatch.
constexpr std::optional<int64_t> evalBinary(Opcode Op, int64_t L, int64_t R) {
  auto U = [](int64_t V) { return static_cast<uint64_t>(V); };
  switch (Op) {
  case Opcode::Add:
    return static_cast<int64_t>(U(L) + U(R));
  case Opcode::Sub:
    return static_cast<int64_t>(U(L) - U(R));
  case Opcode::Mul:
    return static_cast<int64_t>(U(L) * U(R));
  case Opcode::Div:
  case Opcode::Rem:
    if (R == 0 || (L == INT64_MIN && R == -1))
      return std::nullopt;
    return Op == Opcode::Div ? L / R : L % R;
  case Opcode::Shl:
    return static_cast<int64_t>(U(L) << (R & 63));
  case Opcode::Shr:
    return L >> (R & 63);
  case Opcode::And:
    return L & R;
  case Opcode::Or:
    return L | R;
  case Opcode::Xor:
    return L ^ R;
  case Opcode::CmpEq:
    return L == R;
  case Opcode::CmpNe:
    return L != R;
  case Opcode::CmpLt:
    return L < R;
  case Opcode::CmpLe:
    return L <= R;
  case Opcode::CmpGt:
    return L > R;
  case Opcode::CmpGe:
    return L >= R;
  default:
    assert(false && "not a binary opcode");
    return std::nullopt;
  }
}

/// The trap message both engines report when evalBinary(\p Op, L, \p R)
/// is nullopt.
constexpr const char *getBinaryTrapMessage(Opcode Op, int64_t R) {
  if (Op == Opcode::Div)
    return R == 0 ? "division by zero" : "division overflow";
  return R == 0 ? "remainder by zero" : "remainder overflow";
}

/// The value of unary opcode \p Op over \p V (no unary opcode traps).
constexpr int64_t evalUnary(Opcode Op, int64_t V) {
  switch (Op) {
  case Opcode::Mov:
    return V;
  case Opcode::Neg:
    return static_cast<int64_t>(0ull - static_cast<uint64_t>(V));
  case Opcode::Not:
    return ~V;
  default:
    assert(false && "not a unary opcode");
    return V;
  }
}

} // namespace impact

#endif // IMPACT_IR_OPCODE_H

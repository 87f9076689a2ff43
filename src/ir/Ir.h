//===- ir/Ir.h - The IMPACT-style intermediate language --------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A register-based three-address intermediate language ("IL", following the
/// paper's terminology). Programs are Modules of Functions; a Function is a
/// list of BasicBlocks of Instrs; the last instruction of every block is its
/// unique terminator. Virtual registers are mutable (non-SSA) and local to a
/// function. Scalar locals live in registers; arrays and address-taken
/// locals live in the function frame, addressed as FP + offset words.
///
/// Every Call/CallPtr instruction carries a module-unique SiteId — this is
/// the paper's "unique identifier" for call-graph arcs (several arcs may
/// connect the same caller/callee pair). Inline expansion clones callee
/// blocks into the caller, rebases registers and frame offsets, and rewrites
/// call/return as unconditional jumps.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_IR_IR_H
#define IMPACT_IR_IR_H

#include "ir/Opcode.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace impact {

/// Virtual register index within a function; kNoReg means "absent".
using Reg = int32_t;
/// Basic block index within a function.
using BlockId = int32_t;
/// Function index within a module.
using FuncId = int32_t;

inline constexpr Reg kNoReg = -1;
inline constexpr FuncId kNoFunc = -1;

/// Runtime address-space layout. Memory is word-addressed (one int64 per
/// address). The segments are disjoint by construction so the interpreter
/// can classify any address.
inline constexpr int64_t kNullAddr = 0;
inline constexpr int64_t kGlobalBase = 1ll << 20;
inline constexpr int64_t kStackBase = 1ll << 28;
inline constexpr int64_t kHeapBase = 1ll << 32;
inline constexpr int64_t kFuncAddrBase = 1ll << 40;

/// Encodes function \p Id as a word value usable as a function pointer.
inline int64_t encodeFuncAddr(FuncId Id) { return kFuncAddrBase + Id; }
/// Returns the FuncId encoded in \p Addr, or kNoFunc if \p Addr is not a
/// function address.
inline FuncId decodeFuncAddr(int64_t Addr) {
  return Addr >= kFuncAddrBase ? static_cast<FuncId>(Addr - kFuncAddrBase)
                               : kNoFunc;
}

/// One IL instruction. A flat POD-ish struct: cheap to clone, which the
/// inline expander relies on.
struct Instr {
  Opcode Op = Opcode::Mov;
  Reg Dst = kNoReg;
  Reg Src1 = kNoReg;
  Reg Src2 = kNoReg;
  /// LdImm value, FrameAddr offset, or GlobalAddr global index.
  int64_t Imm = 0;
  BlockId Target = -1;
  BlockId Target2 = -1;
  /// Direct callee (Call, FuncAddr).
  FuncId Callee = kNoFunc;
  /// Module-unique static call-site id (Call, CallPtr); 0 means unassigned.
  uint32_t SiteId = 0;
  /// Argument registers (Call, CallPtr).
  std::vector<Reg> Args;

  bool isTerminator() const { return impact::isTerminator(Op); }
  bool isCall() const { return impact::isCall(Op); }

  // Convenience factories.
  static Instr makeMov(Reg Dst, Reg Src);
  static Instr makeLdImm(Reg Dst, int64_t Value);
  static Instr makeBinary(Opcode Op, Reg Dst, Reg Lhs, Reg Rhs);
  static Instr makeUnary(Opcode Op, Reg Dst, Reg Src);
  static Instr makeLoad(Reg Dst, Reg Addr);
  static Instr makeStore(Reg Addr, Reg Value);
  static Instr makeFrameAddr(Reg Dst, int64_t Offset);
  static Instr makeGlobalAddr(Reg Dst, int64_t GlobalIndex);
  static Instr makeFuncAddr(Reg Dst, FuncId Callee);
  static Instr makeCall(Reg Dst, FuncId Callee, std::vector<Reg> Args,
                        uint32_t SiteId);
  static Instr makeCallPtr(Reg Dst, Reg CalleeAddr, std::vector<Reg> Args,
                           uint32_t SiteId);
  static Instr makeJump(BlockId Target);
  static Instr makeCondBr(Reg Cond, BlockId TrueTarget, BlockId FalseTarget);
  static Instr makeRet(Reg Value);
};

/// A straight-line sequence of instructions ending in one terminator.
struct BasicBlock {
  std::vector<Instr> Instrs;

  bool empty() const { return Instrs.empty(); }
  size_t size() const { return Instrs.size(); }

  /// The terminator; the block must be non-empty and well-formed.
  const Instr &getTerminator() const {
    assert(!Instrs.empty() && "empty block has no terminator");
    return Instrs.back();
  }
  Instr &getTerminator() {
    assert(!Instrs.empty() && "empty block has no terminator");
    return Instrs.back();
  }
};

/// An IL function. External functions (the paper's unavailable bodies) have
/// IsExternal set and no blocks; their behaviour is provided by interpreter
/// intrinsics.
struct Function {
  std::string Name;
  FuncId Id = kNoFunc;
  /// Parameters arrive in registers 0 .. NumParams-1.
  uint32_t NumParams = 0;
  bool ReturnsVoid = false;
  bool IsExternal = false;
  /// True if function-level dead code removal deleted this body (§2.6).
  /// The entry stays so FuncIds remain stable; calling it is a bug.
  bool Eliminated = false;
  /// True if the function's address is used in a computation; it is then
  /// reachable through the ### pseudo node.
  bool AddressTaken = false;
  /// Number of virtual registers (>= NumParams).
  uint32_t NumRegs = 0;
  /// Frame size in words (arrays + address-taken locals).
  int64_t FrameSize = 0;
  std::vector<BasicBlock> Blocks;
  /// Optional debug names per register ("" when unnamed). After inline
  /// expansion, names of inlined callee registers are path-qualified as
  /// "callee.name@site<id>", matching the paper's symbol-table discipline.
  std::vector<std::string> RegNames;

  /// Static code size in IL instructions — the paper's function code size
  /// metric, re-evaluated by the planner after each accepted expansion.
  size_t size() const {
    size_t N = 0;
    for (const BasicBlock &B : Blocks)
      N += B.size();
    return N;
  }

  /// Words of control stack one activation consumes: frame + register save
  /// area + linkage. This is the "summarized control stack usage" the
  /// paper's hazard check compares against its bound.
  int64_t getActivationWords() const {
    return FrameSize + static_cast<int64_t>(NumRegs) + 2;
  }

  /// Allocates a fresh virtual register, optionally named.
  Reg addReg(std::string Name = std::string());

  /// Appends a new empty block, returning its id.
  BlockId addBlock();

  BasicBlock &getBlock(BlockId Id) {
    assert(Id >= 0 && static_cast<size_t>(Id) < Blocks.size());
    return Blocks[Id];
  }
  const BasicBlock &getBlock(BlockId Id) const {
    assert(Id >= 0 && static_cast<size_t>(Id) < Blocks.size());
    return Blocks[Id];
  }
};

/// A global word array (scalars are arrays of size 1). Init values fill the
/// first Init.size() words; the rest are zero.
struct Global {
  std::string Name;
  int64_t Size = 1;
  std::vector<int64_t> Init;
};

/// A whole IL program.
struct Module {
  std::string Name;
  std::vector<Function> Funcs;
  std::vector<Global> Globals;
  FuncId MainId = kNoFunc;
  /// Next unassigned call-site id; site ids stay unique module-wide even
  /// across inline expansion (clones receive fresh ids).
  uint32_t NextSiteId = 1;

  Function &getFunction(FuncId Id) {
    assert(Id >= 0 && static_cast<size_t>(Id) < Funcs.size());
    return Funcs[Id];
  }
  const Function &getFunction(FuncId Id) const {
    assert(Id >= 0 && static_cast<size_t>(Id) < Funcs.size());
    return Funcs[Id];
  }

  /// Returns the id of the function named \p Name, or kNoFunc.
  FuncId findFunction(const std::string &Name) const;

  /// Creates a new function and returns its id.
  FuncId addFunction(std::string Name, uint32_t NumParams, bool ReturnsVoid,
                     bool IsExternal);

  /// Creates a new global and returns its index.
  int64_t addGlobal(std::string Name, int64_t Size,
                    std::vector<int64_t> Init = {});

  uint32_t allocateSiteId() { return NextSiteId++; }

  /// Total static IL size over non-external functions — the paper's program
  /// size metric (code expansion is measured on this).
  size_t size() const;

  /// Word address of global \p Index (globals are laid out contiguously
  /// from kGlobalBase in declaration order).
  int64_t getGlobalAddress(int64_t Index) const;

  /// Total words of the global segment.
  int64_t getGlobalSegmentSize() const;
};

} // namespace impact

#endif // IMPACT_IR_IR_H

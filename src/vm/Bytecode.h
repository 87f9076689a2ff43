//===- vm/Bytecode.h - Flat bytecode for the profiling VM --------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact, flat-encoded bytecode for the measuring interpreter. Each IL
/// Function is compiled once into a single std::vector<int32_t>: one opcode
/// token followed by its operands, with *absolute* jump targets (code
/// indices, no block table at run time), register-slot operands (indices
/// into the current activation's register window), and inline arc-counter
/// indices (a Call's SiteId is baked into the instruction, so bumping the
/// paper's arc weight is one indexed increment).
///
/// Direct calls are resolved at compile time into specialized tokens:
/// CallUser (known IL body), CallExt (known intrinsic handle), CallTrap
/// (statically doomed: eliminated callee or arity mismatch — still counted
/// exactly like the walker before trapping). 64-bit immediates and
/// precomputed addresses (global segment layout, encoded function
/// addresses) live in a per-function constant pool.
///
/// One superinstruction fuses the hot compare-and-branch shape: a Cmp*
/// whose Dst feeds the block's CondBr. Fused execution is observationally identical to the unfused sequence:
/// every constituent IL instruction is still step-checked and counted
/// individually (a step limit can exhaust *inside* a superinstruction at
/// exactly the same IL instruction the walker would stop at), and all
/// intermediate register writes still happen.
///
/// The bytecode never feeds back into compilation: it is a pure execution
/// encoding, derived deterministically from the module, and the walker in
/// src/interp remains the semantics oracle (see tests/DifferentialTests).
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_VM_BYTECODE_H
#define IMPACT_VM_BYTECODE_H

#include "interp/Memory.h"
#include "ir/Ir.h"

#include <cstdint>
#include <string>
#include <vector>

namespace impact {

/// Bytecode opcode tokens. The first tokens are the IL's data opcodes
/// (ir/Opcode.h's IMPACT_DATA_OPCODES), same name and number, so the VM
/// counts the IL opcode and ExecStats::OpcodeCounts stays bit-identical to
/// the walker's. Their encodings: unary operators, load and store take
/// two register words (dst/addr, src/val); binary operators and compares
/// take three (dst, s1, s2); ld_imm and the address forms take dst and a
/// pool index. Call tokens split one IL opcode by compile-time
/// resolution; Cmp*Br tokens cover two IL instructions each.
enum class VmOp : int32_t {
#define IMPACT_VM_DATA_TOKEN(Name, Mnemonic, Kind, Flags) Name,
  IMPACT_DATA_OPCODES(IMPACT_VM_DATA_TOKEN)
#undef IMPACT_VM_DATA_TOKEN
  CallUser,   // dst, callee, site, nargs, arg...
  CallExt,    // dst, handle, callee, site, msg, nargs, arg...
  CallTrap,   // site, msg   (direct call that deterministically traps)
  CallPtr,    // dst, ptr, site, nargs, arg...
  Jump,       // target
  CondBr,     // cond, target, target2
  Ret,        // src (-1 for void)

  // Superinstructions, in the order of the compare opcodes.
  CmpEqBr, // dst, s1, s2, target, target2
  CmpNeBr,
  CmpLtBr,
  CmpLeBr,
  CmpGtBr,
  CmpGeBr,

  // Minimum-coverage probes (mincover compilations only; full-mode code
  // never contains them).
  JumpProbe, // probe, target        (a Jump whose arc is instrumented)
  ProbeJump, // probe, target        (branch-edge stub: bump + jump, no step)
  RetProbe,  // probe, src           (a Ret whose arc is instrumented)
};

/// Number of data tokens: one per IL opcode before Call.
inline constexpr size_t kNumDataTokens = static_cast<size_t>(Opcode::Call);
static_assert(static_cast<size_t>(VmOp::CallUser) == kNumDataTokens);
static_assert(static_cast<int32_t>(Opcode::CmpGe) -
                      static_cast<int32_t>(Opcode::CmpEq) ==
                  static_cast<int32_t>(VmOp::CmpGeBr) -
                      static_cast<int32_t>(VmOp::CmpEqBr),
              "one Cmp*Br token per compare opcode");

inline constexpr size_t kNumVmOps = static_cast<size_t>(VmOp::RetProbe) + 1;

/// One compiled function: flat code, its constant pool, and the trap
/// messages referenced by CallTrap/CallExt tokens.
struct VmFunction {
  std::vector<int32_t> Code;
  std::vector<int64_t> Pool;
  std::vector<std::string> Msgs;
  uint32_t NumRegs = 0;
  int64_t ActivationWords = 0;
  /// True when this FuncId has an executable body (not external, not
  /// eliminated). Calling a slot with !Compiled is diagnosed at run time.
  bool Compiled = false;

  /// Mincover compilations only: a token map for halt-record construction,
  /// parallel arrays sorted by code offset. For the token starting at
  /// MapPC[i], MapBlock[i] is the IL block it belongs to and MapCalls[i]
  /// the number of call IL instructions of that block preceding the token.
  /// Branch stubs are not mapped (execution can never halt inside one).
  std::vector<int32_t> MapPC;
  std::vector<int32_t> MapBlock;
  std::vector<int32_t> MapCalls;
};

/// Per-FuncId callee facts for run-time resolution of indirect calls
/// (CallPtr cannot be specialized at compile time).
struct VmCallee {
  std::string Name;
  uint32_t NumParams = 0;
  int IntrinsicHandle = -1; // external functions only
  bool IsExternal = false;
  bool Eliminated = false;
};

/// What the bytecode compiler did — the static side of the
/// superinstruction story (execution-side hit counts are in VmRunStats).
struct VmCompileStats {
  uint64_t IlInstrs = 0;        // IL instructions translated
  uint64_t VmInstrs = 0;        // bytecode instructions emitted
  uint64_t FusedCmpBr = 0;      // compare-and-branch superinstructions
  uint64_t CodeWords = 0;       // total int32 words of bytecode

  void merge(const VmCompileStats &O) {
    IlInstrs += O.IlInstrs;
    VmInstrs += O.VmInstrs;
    FusedCmpBr += O.FusedCmpBr;
    CodeWords += O.CodeWords;
  }
};

/// A whole module, compiled once. Self-contained: keeps copies of the
/// global-segment layout and callee facts, so the VM never touches the
/// Module again after compilation (a profiled program is compiled once and
/// executed once per representative input).
struct VmProgram {
  std::vector<VmFunction> Funcs;  // indexed by FuncId
  std::vector<VmCallee> Callees;  // indexed by FuncId
  /// The initial global segment (flattenGlobalImage), so runs don't need
  /// the Module.
  impact::GlobalImage GlobalImage;
  FuncId MainId = kNoFunc;
  uint32_t NumSites = 0;          // Module::NextSiteId (arc-counter table)
  size_t NumFuncs = 0;
  VmCompileStats Stats;
  /// True when compiled against a MinCoverPlan: counter pressure left the
  /// dispatch loop (no opcode histogram, no site bumps), probe tokens /
  /// stubs carry the co-tree counters, and ExecStats::ArcCounts is sized
  /// NumProbes.
  bool MinCover = false;
  uint32_t NumProbes = 0;
  /// Mincover only, indexed by FuncId: co-tree entry-arc probe or -1.
  std::vector<int32_t> EntryProbes;
};

struct MinCoverPlan;

/// Compiles every executable function of \p M to bytecode. With a non-null
/// \p Plan the program is compiled in minimum-coverage form: probed Jump /
/// Ret terminators become JumpProbe / RetProbe tokens, probed branch edges
/// are redirected through ProbeJump stubs appended after the blocks (fused
/// cmp+br superinstructions need no new cases — only their target words
/// change), and a per-token side map is recorded for halt reconstruction.
VmProgram compileToBytecode(const Module &M, const MinCoverPlan *Plan = nullptr);

/// Renders \p F as one mnemonic-per-line text ("  12: cmp_lt_br r3, r1, r2
/// -> 20, 34"), for tests and debugging.
std::string disassemble(const VmFunction &F);

/// The mnemonic for \p Op ("cmp_lt_br", "call_user", ...).
const char *getVmOpName(VmOp Op);

} // namespace impact

#endif // IMPACT_VM_BYTECODE_H

//===- vm/Bytecode.cpp - IL -> bytecode translation ---------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Bytecode.h"

#include "interp/Intrinsics.h"
#include "interp/Memory.h"
#include "profile/MinCover.h"

#include <cassert>

using namespace impact;

namespace {

/// How instruction \p I at index \p Idx of \p B participates in fusion.
enum class Fuse : uint8_t {
  None,        // translate alone
  CmpBrHead,   // Cmp* fused with the following CondBr (consumes 2)
  Consumed,    // body of a superinstruction started earlier
};

/// Encoded word count of \p I under fusion decision \p F (0 when consumed).
size_t encodedWords(const Instr &I, Fuse F) {
  switch (F) {
  case Fuse::Consumed:
    return 0;
  case Fuse::CmpBrHead:
    return 6; // op, dst, s1, s2, target, target2
  case Fuse::None:
    break;
  }
  if (isBinaryOp(I.Op))
    return 4; // op, dst, s1, s2
  switch (I.Op) {
  case Opcode::Call:
    // Resolution-dependent; computed by the caller (see callWords).
    assert(false && "calls are sized by callWords");
    return 0;
  case Opcode::CallPtr:
    return 5 + I.Args.size();
  case Opcode::Jump:
  case Opcode::Ret:
    return 2;
  case Opcode::CondBr:
    return 4;
  default:
    return 3; // unary ops, ld_imm, load, store, address forms
  }
}

/// Compile-time resolution of a direct call.
enum class CallKind { User, Ext, Trap };

CallKind resolveCall(const Module &M, const Instr &I) {
  const Function &F = M.getFunction(I.Callee);
  if (F.Eliminated || I.Args.size() != F.NumParams)
    return CallKind::Trap;
  return F.IsExternal ? CallKind::Ext : CallKind::User;
}

size_t callWords(const Module &M, const Instr &I) {
  switch (resolveCall(M, I)) {
  case CallKind::User:
    return 5 + I.Args.size();
  case CallKind::Ext:
    return 7 + I.Args.size();
  case CallKind::Trap:
    return 3;
  }
  return 0;
}

class FunctionCompiler {
public:
  FunctionCompiler(const Module &M, const Function &F, VmCompileStats &Stats,
                   const MinCoverFuncPlan *FP)
      : M(M), F(F), Stats(Stats), FP(FP && FP->Instrumented ? FP : nullptr) {}

  VmFunction compile() {
    Out.NumRegs = F.NumRegs;
    Out.ActivationWords = F.getActivationWords();
    Out.Compiled = true;

    planFusion();
    layoutBlocks();
    layoutStubs();
    for (BlockId B = 0; B != static_cast<BlockId>(F.Blocks.size()); ++B)
      emitBlock(B);
    emitStubs();
    assert(Out.Code.size() == TotalWords && "layout/emission mismatch");
    Stats.CodeWords += Out.Code.size();
    return std::move(Out);
  }

private:
  /// Decides, deterministically, which blocks end in a fusable shape. Fusion only
  /// changes dispatch: every constituent IL instruction is still executed,
  /// counted, and step-checked in original order by the fused handler.
  void planFusion() {
    FusePlan.resize(F.Blocks.size());
    for (size_t B = 0; B != F.Blocks.size(); ++B) {
      const std::vector<Instr> &Is = F.Blocks[B].Instrs;
      std::vector<Fuse> &Plan = FusePlan[B];
      Plan.assign(Is.size(), Fuse::None);
      // Cmp* feeding the block's CondBr directly.
      size_t N = Is.size();
      if (N >= 2 && isCompareOp(Is[N - 2].Op) &&
          Is[N - 1].Op == Opcode::CondBr && Is[N - 1].Src1 == Is[N - 2].Dst) {
        Plan[N - 2] = Fuse::CmpBrHead;
        Plan[N - 1] = Fuse::Consumed;
        ++Stats.FusedCmpBr;
      }
    }
  }

  void layoutBlocks() {
    BlockOffsets.resize(F.Blocks.size(), 0);
    size_t Offset = 0;
    for (size_t B = 0; B != F.Blocks.size(); ++B) {
      BlockOffsets[B] = static_cast<int32_t>(Offset);
      const std::vector<Instr> &Is = F.Blocks[B].Instrs;
      for (size_t I = 0; I != Is.size(); ++I) {
        Offset += Is[I].Op == Opcode::Call && FusePlan[B][I] == Fuse::None
                      ? callWords(M, Is[I])
                      : encodedWords(Is[I], FusePlan[B][I]);
        // A probed Jump/Ret terminator carries one extra word (the probe
        // index); probed branch edges are routed through stubs instead, so
        // CondBr / fused cmp+br keep their full-mode encodings.
        if (FP) {
          if (Is[I].Op == Opcode::Jump && FP->JumpProbes[B] >= 0)
            ++Offset;
          else if (Is[I].Op == Opcode::Ret && FP->RetProbes[B] >= 0)
            ++Offset;
        }
      }
    }
    TotalWords = Offset;
    Out.Code.reserve(Offset);
  }

  /// Assigns code offsets, after every block, to one ProbeJump stub per
  /// probed branch edge. Execution cost moves entirely off tree edges: an
  /// uninstrumented branch edge jumps straight to its block, exactly like
  /// full mode; a probed edge takes one extra bump-and-jump token.
  void layoutStubs() {
    StubTaken.assign(F.Blocks.size(), -1);
    StubNotTaken.assign(F.Blocks.size(), -1);
    if (!FP)
      return;
    for (size_t B = 0; B != F.Blocks.size(); ++B) {
      const std::vector<Instr> &Is = F.Blocks[B].Instrs;
      if (Is.empty() || Is.back().Op != Opcode::CondBr)
        continue;
      if (FP->TakenProbes[B] >= 0) {
        StubTaken[B] = static_cast<int32_t>(TotalWords);
        TotalWords += 3; // op, probe, target
      }
      if (FP->NotTakenProbes[B] >= 0) {
        StubNotTaken[B] = static_cast<int32_t>(TotalWords);
        TotalWords += 3;
      }
    }
  }

  int32_t pool(int64_t Value) {
    // Pools are tiny; a linear dedup scan keeps the encoding minimal.
    for (size_t I = 0; I != Out.Pool.size(); ++I)
      if (Out.Pool[I] == Value)
        return static_cast<int32_t>(I);
    Out.Pool.push_back(Value);
    return static_cast<int32_t>(Out.Pool.size() - 1);
  }

  int32_t msg(std::string Text) {
    for (size_t I = 0; I != Out.Msgs.size(); ++I)
      if (Out.Msgs[I] == Text)
        return static_cast<int32_t>(I);
    Out.Msgs.push_back(std::move(Text));
    return static_cast<int32_t>(Out.Msgs.size() - 1);
  }

  void op(VmOp Token) {
    if (FP && Mapping) {
      Out.MapPC.push_back(static_cast<int32_t>(Out.Code.size()));
      Out.MapBlock.push_back(MapB);
      Out.MapCalls.push_back(MapCallsInBlock);
    }
    Out.Code.push_back(static_cast<int32_t>(Token));
    ++Stats.VmInstrs;
  }
  void w(int32_t Word) { Out.Code.push_back(Word); }

  /// The code word for a CondBr / fused cmp+br edge of block \p B: the
  /// target block directly when the edge is a tree arc, its ProbeJump stub
  /// when instrumented. A degenerate (equal-target) cond_br is planned as
  /// one merged arc whose probe lives in the taken slot; both edge words
  /// then route through the same stub so either outcome bumps it once.
  int32_t brTarget(size_t B, BlockId Target, bool Taken) {
    if (!FP)
      return BlockOffsets[Target];
    const Instr &T = F.Blocks[B].Instrs.back();
    if (T.Target == T.Target2)
      return StubTaken[B] >= 0 ? StubTaken[B] : BlockOffsets[Target];
    int32_t Stub = Taken ? StubTaken[B] : StubNotTaken[B];
    return Stub >= 0 ? Stub : BlockOffsets[Target];
  }

  void emitCall(const Instr &I) {
    const Function &Callee = M.getFunction(I.Callee);
    switch (resolveCall(M, I)) {
    case CallKind::User:
      op(VmOp::CallUser);
      w(I.Dst);
      w(I.Callee);
      w(static_cast<int32_t>(I.SiteId));
      w(static_cast<int32_t>(I.Args.size()));
      for (Reg A : I.Args)
        w(A);
      break;
    case CallKind::Ext:
      op(VmOp::CallExt);
      w(I.Dst);
      w(IntrinsicRegistry::lookup(Callee.Name));
      w(I.Callee);
      w(static_cast<int32_t>(I.SiteId));
      w(msg("call to unknown external function '" + Callee.Name + "'"));
      w(static_cast<int32_t>(I.Args.size()));
      for (Reg A : I.Args)
        w(A);
      break;
    case CallKind::Trap: {
      std::string Text =
          Callee.Eliminated
              ? "call to eliminated function '" + Callee.Name + "'"
              : "call to '" + Callee.Name + "' with " +
                    std::to_string(I.Args.size()) + " arguments; it takes " +
                    std::to_string(Callee.NumParams);
      op(VmOp::CallTrap);
      w(static_cast<int32_t>(I.SiteId));
      w(msg(std::move(Text)));
      break;
    }
    }
  }

  void emitBlock(BlockId B) {
    Mapping = true;
    MapB = B;
    MapCallsInBlock = 0;
    const std::vector<Instr> &Is = F.Blocks[B].Instrs;
    for (size_t Idx = 0; Idx != Is.size(); ++Idx) {
      const Instr &I = Is[Idx];
      switch (FusePlan[B][Idx]) {
      case Fuse::Consumed:
        continue;
      case Fuse::CmpBrHead: {
        const Instr &Br = Is[Idx + 1];
        op(static_cast<VmOp>(static_cast<int32_t>(VmOp::CmpEqBr) +
                             static_cast<int32_t>(I.Op) -
                             static_cast<int32_t>(Opcode::CmpEq)));
        w(I.Dst);
        w(I.Src1);
        w(I.Src2);
        w(brTarget(B, Br.Target, /*Taken=*/true));
        w(brTarget(B, Br.Target2, /*Taken=*/false));
        ++Stats.IlInstrs; // the consumed CondBr
        break;
      }
      case Fuse::None:
        if (isUnaryOp(I.Op) || isBinaryOp(I.Op)) {
          op(static_cast<VmOp>(I.Op)); // data tokens mirror the IL opcodes
          w(I.Dst);
          w(I.Src1);
          if (isBinaryOp(I.Op))
            w(I.Src2);
          break;
        }
        switch (I.Op) {
        case Opcode::LdImm:
          op(VmOp::LdImm);
          w(I.Dst);
          w(pool(I.Imm));
          break;
        case Opcode::Load:
          op(VmOp::Load);
          w(I.Dst);
          w(I.Src1);
          break;
        case Opcode::Store:
          op(VmOp::Store);
          w(I.Src1);
          w(I.Src2);
          break;
        case Opcode::FrameAddr:
          op(VmOp::FrameAddr);
          w(I.Dst);
          w(pool(I.Imm));
          break;
        case Opcode::GlobalAddr:
          op(VmOp::GlobalAddr);
          w(I.Dst);
          w(pool(GlobalAddrs[static_cast<size_t>(I.Imm)]));
          break;
        case Opcode::FuncAddr:
          op(VmOp::FuncAddr);
          w(I.Dst);
          w(pool(encodeFuncAddr(I.Callee)));
          break;
        case Opcode::Call:
          emitCall(I);
          ++MapCallsInBlock;
          break;
        case Opcode::CallPtr:
          op(VmOp::CallPtr);
          w(I.Dst);
          w(I.Src1);
          w(static_cast<int32_t>(I.SiteId));
          w(static_cast<int32_t>(I.Args.size()));
          for (Reg A : I.Args)
            w(A);
          ++MapCallsInBlock;
          break;
        case Opcode::Jump:
          if (FP && FP->JumpProbes[B] >= 0) {
            op(VmOp::JumpProbe);
            w(FP->JumpProbes[B]);
            w(BlockOffsets[I.Target]);
          } else {
            op(VmOp::Jump);
            w(BlockOffsets[I.Target]);
          }
          break;
        case Opcode::CondBr:
          op(VmOp::CondBr);
          w(I.Src1);
          w(brTarget(B, I.Target, /*Taken=*/true));
          w(brTarget(B, I.Target2, /*Taken=*/false));
          break;
        case Opcode::Ret:
          if (FP && FP->RetProbes[B] >= 0) {
            op(VmOp::RetProbe);
            w(FP->RetProbes[B]);
            w(I.Src1);
          } else {
            op(VmOp::Ret);
            w(I.Src1);
          }
          break;
        default: // unary and binary operators, emitted above
          break;
        }
        break;
      }
      ++Stats.IlInstrs;
    }
  }

  void emitStubs() {
    Mapping = false;
    if (!FP)
      return;
    for (size_t B = 0; B != F.Blocks.size(); ++B) {
      if (StubTaken[B] < 0 && StubNotTaken[B] < 0)
        continue;
      const Instr &T = F.Blocks[B].Instrs.back();
      if (StubTaken[B] >= 0) {
        assert(static_cast<size_t>(StubTaken[B]) == Out.Code.size());
        op(VmOp::ProbeJump);
        w(FP->TakenProbes[B]);
        w(BlockOffsets[T.Target]);
      }
      if (StubNotTaken[B] >= 0) {
        assert(static_cast<size_t>(StubNotTaken[B]) == Out.Code.size());
        op(VmOp::ProbeJump);
        w(FP->NotTakenProbes[B]);
        w(BlockOffsets[T.Target2]);
      }
    }
  }

public:
  /// Absolute global-segment addresses, precomputed once per module.
  std::vector<int64_t> GlobalAddrs;

private:
  const Module &M;
  const Function &F;
  VmCompileStats &Stats;
  /// Probe placement for this function; null for full-mode compilation.
  const MinCoverFuncPlan *FP;
  VmFunction Out;
  std::vector<std::vector<Fuse>> FusePlan;
  std::vector<int32_t> BlockOffsets;
  /// Per-block ProbeJump stub offsets (-1 = edge not instrumented).
  std::vector<int32_t> StubTaken;
  std::vector<int32_t> StubNotTaken;
  size_t TotalWords = 0;
  /// Token-map recording state (mincover only; stubs are not mapped).
  bool Mapping = false;
  BlockId MapB = 0;
  int32_t MapCallsInBlock = 0;
};

} // namespace

VmProgram impact::compileToBytecode(const Module &M,
                                    const MinCoverPlan *Plan) {
  VmProgram P;
  P.MainId = M.MainId;
  P.NumSites = M.NextSiteId;
  P.NumFuncs = M.Funcs.size();
  if (Plan) {
    P.MinCover = true;
    P.NumProbes = Plan->NumProbes;
    P.EntryProbes.assign(M.Funcs.size(), -1);
    for (size_t F = 0; F < M.Funcs.size() && F < Plan->Funcs.size(); ++F)
      if (Plan->Funcs[F].Instrumented)
        P.EntryProbes[F] = Plan->Funcs[F].EntryProbe;
  }

  std::vector<int64_t> GlobalAddrs;
  GlobalAddrs.reserve(M.Globals.size());
  int64_t Addr = kGlobalBase;
  for (const Global &G : M.Globals) {
    GlobalAddrs.push_back(Addr);
    Addr += G.Size;
  }

  P.GlobalImage = flattenGlobalImage(M);

  P.Funcs.resize(M.Funcs.size());
  P.Callees.reserve(M.Funcs.size());
  for (const Function &F : M.Funcs) {
    VmCallee C;
    C.Name = F.Name;
    C.NumParams = F.NumParams;
    C.IsExternal = F.IsExternal;
    C.Eliminated = F.Eliminated;
    if (F.IsExternal)
      C.IntrinsicHandle = IntrinsicRegistry::lookup(F.Name);
    P.Callees.push_back(std::move(C));

    if (F.IsExternal || F.Eliminated || F.Blocks.empty())
      continue;
    const MinCoverFuncPlan *FP =
        Plan && static_cast<size_t>(F.Id) < Plan->Funcs.size()
            ? &Plan->Funcs[F.Id]
            : nullptr;
    FunctionCompiler FC(M, F, P.Stats, FP);
    FC.GlobalAddrs = GlobalAddrs;
    P.Funcs[F.Id] = FC.compile();
  }
  return P;
}

const char *impact::getVmOpName(VmOp Op) {
  if (static_cast<size_t>(Op) < kNumDataTokens)
    return getOpcodeName(static_cast<Opcode>(Op));
  switch (Op) {
  case VmOp::CallUser: return "call_user";
  case VmOp::CallExt: return "call_ext";
  case VmOp::CallTrap: return "call_trap";
  case VmOp::CallPtr: return "call_ptr";
  case VmOp::Jump: return "jump";
  case VmOp::CondBr: return "cond_br";
  case VmOp::Ret: return "ret";
  case VmOp::CmpEqBr: return "cmp_eq_br";
  case VmOp::CmpNeBr: return "cmp_ne_br";
  case VmOp::CmpLtBr: return "cmp_lt_br";
  case VmOp::CmpLeBr: return "cmp_le_br";
  case VmOp::CmpGtBr: return "cmp_gt_br";
  case VmOp::CmpGeBr: return "cmp_ge_br";
  case VmOp::JumpProbe: return "jump_probe";
  case VmOp::ProbeJump: return "probe_jump";
  case VmOp::RetProbe: return "ret_probe";
  default: return "?";
  }
}

std::string impact::disassemble(const VmFunction &F) {
  std::string Out;
  auto R = [](int32_t Slot) { return "r" + std::to_string(Slot); };
  size_t PC = 0;
  const std::vector<int32_t> &C = F.Code;
  while (PC < C.size()) {
    VmOp Op = static_cast<VmOp>(C[PC]);
    Out += "  " + std::to_string(PC) + ": " + getVmOpName(Op);
    switch (Op) {
    case VmOp::Load:
      Out += " " + R(C[PC + 1]) + ", " + R(C[PC + 2]);
      PC += 3;
      break;
    case VmOp::Store:
      Out += " [" + R(C[PC + 1]) + "], " + R(C[PC + 2]);
      PC += 3;
      break;
    case VmOp::LdImm:
    case VmOp::FrameAddr:
    case VmOp::GlobalAddr:
    case VmOp::FuncAddr:
      Out += " " + R(C[PC + 1]) + ", " +
             std::to_string(F.Pool[static_cast<size_t>(C[PC + 2])]);
      PC += 3;
      break;
    case VmOp::CallUser: {
      int32_t N = C[PC + 4];
      Out += " " + R(C[PC + 1]) + ", f" + std::to_string(C[PC + 2]) +
             ", site " + std::to_string(C[PC + 3]);
      for (int32_t A = 0; A != N; ++A)
        Out += ", " + R(C[PC + 5 + A]);
      PC += 5 + N;
      break;
    }
    case VmOp::CallExt: {
      int32_t N = C[PC + 6];
      Out += " " + R(C[PC + 1]) + ", ext " + std::to_string(C[PC + 2]) +
             ", site " + std::to_string(C[PC + 4]);
      for (int32_t A = 0; A != N; ++A)
        Out += ", " + R(C[PC + 7 + A]);
      PC += 7 + N;
      break;
    }
    case VmOp::CallTrap:
      Out += " site " + std::to_string(C[PC + 1]) + ", \"" +
             F.Msgs[static_cast<size_t>(C[PC + 2])] + "\"";
      PC += 3;
      break;
    case VmOp::CallPtr: {
      int32_t N = C[PC + 4];
      Out += " " + R(C[PC + 1]) + ", *" + R(C[PC + 2]) + ", site " +
             std::to_string(C[PC + 3]);
      for (int32_t A = 0; A != N; ++A)
        Out += ", " + R(C[PC + 5 + A]);
      PC += 5 + N;
      break;
    }
    case VmOp::Jump:
      Out += " -> " + std::to_string(C[PC + 1]);
      PC += 2;
      break;
    case VmOp::CondBr:
      Out += " " + R(C[PC + 1]) + " -> " + std::to_string(C[PC + 2]) +
             ", " + std::to_string(C[PC + 3]);
      PC += 4;
      break;
    case VmOp::Ret:
      if (C[PC + 1] != kNoReg)
        Out += " " + R(C[PC + 1]);
      PC += 2;
      break;
    case VmOp::CmpEqBr:
    case VmOp::CmpNeBr:
    case VmOp::CmpLtBr:
    case VmOp::CmpLeBr:
    case VmOp::CmpGtBr:
    case VmOp::CmpGeBr:
      Out += " " + R(C[PC + 1]) + ", " + R(C[PC + 2]) + ", " + R(C[PC + 3]) +
             " -> " + std::to_string(C[PC + 4]) + ", " +
             std::to_string(C[PC + 5]);
      PC += 6;
      break;
    case VmOp::JumpProbe:
    case VmOp::ProbeJump:
      Out += " #" + std::to_string(C[PC + 1]) + " -> " +
             std::to_string(C[PC + 2]);
      PC += 3;
      break;
    case VmOp::RetProbe:
      Out += " #" + std::to_string(C[PC + 1]);
      if (C[PC + 2] != kNoReg)
        Out += " " + R(C[PC + 2]);
      PC += 3;
      break;
    default: { // the unary and binary operators' data tokens
      bool Binary = isBinaryOp(static_cast<Opcode>(Op));
      Out += " " + R(C[PC + 1]) + ", " + R(C[PC + 2]);
      if (Binary)
        Out += ", " + R(C[PC + 3]);
      PC += Binary ? 4 : 3;
      break;
    }
    }
    Out += "\n";
  }
  return Out;
}

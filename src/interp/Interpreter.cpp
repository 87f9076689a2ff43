//===- interp/Interpreter.cpp -------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "analysis/RangeAnalysis.h"
#include "cachesim/ICacheSim.h"
#include "interp/Memory.h"
#include "profile/MinCover.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace impact;

namespace {

/// One pending activation on the control stack.
struct Frame {
  FuncId Func;
  BlockId Block;
  size_t InstrIndex; // resume point in the caller
  Reg RetDst;        // caller register receiving the return value
  size_t RegBase;    // caller register window start
  int64_t FrameBase; // caller frame base address
  int64_t ActivationWords; // callee activation size to pop on return
};

class Engine {
public:
  Engine(const Module &M, const RunOptions &Opts)
      : M(M), Opts(Opts), MCPlan(Opts.MinCover), Check(Opts.FactCheck),
        Mem(flattenGlobalImage(M), Opts.StackWords) {
    Io.Input = Opts.Input;
    Io.Input2 = Opts.Input2;

    GlobalAddrs.reserve(M.Globals.size());
    int64_t Addr = kGlobalBase;
    for (const Global &G : M.Globals) {
      GlobalAddrs.push_back(Addr);
      Addr += G.Size;
    }

    IntrinsicHandles.reserve(M.Funcs.size());
    for (const Function &F : M.Funcs)
      IntrinsicHandles.push_back(
          F.IsExternal ? IntrinsicRegistry::lookup(F.Name) : -1);

    Result.Stats.FuncEntryCounts.assign(M.Funcs.size(), 0);
    if (MCPlan) {
      // Minimum-coverage mode: only co-tree probes, external entries, and
      // the step count are measured; the per-site / per-opcode histograms
      // stay empty and are rebuilt by inference.
      Result.Stats.ArcCounts.assign(MCPlan->NumProbes, 0);
    } else {
      Result.Stats.SiteCounts.assign(M.NextSiteId, 0);
      Result.Stats.OpcodeCounts.assign(kNumOpcodes, 0);
    }

    if (Opts.ICache)
      Layout = InstructionLayout::compute(M);
  }

  ExecResult run() {
    if (M.MainId == kNoFunc) {
      return makeTrap("module has no main function");
    }
    if (!enterFunction(M.MainId, /*ArgRegs=*/{}, /*RetDst=*/kNoReg,
                       /*IsTail=*/true))
      return finishTrap();
    if (MCPlan)
      execLoopImpl<true>();
    else
      execLoopImpl<false>();
    if (MCPlan)
      buildHaltRecords();
    Result.Output = std::move(Io.Output);
    Result.Stats.PeakStackWords = Mem.getPeakStackWords();
    return std::move(Result);
  }

private:
  ExecResult makeTrap(std::string Message) {
    Result.St = ExecResult::Status::Trapped;
    Result.TrapMessage = std::move(Message);
    Result.Output = std::move(Io.Output);
    Result.Stats.PeakStackWords = Mem.getPeakStackWords();
    return std::move(Result);
  }

  ExecResult finishTrap() {
    return makeTrap(Mem.hasTrapped() ? Mem.getTrapMessage() : PendingTrap);
  }

  void trap(std::string Message) {
    if (PendingTrap.empty())
      PendingTrap = std::move(Message);
    Halted = true;
  }

  int64_t &reg(Reg R) { return RegFile[RegBase + static_cast<size_t>(R)]; }

  /// Pushes an activation for \p Callee and transfers control to its entry;
  /// the callee's parameters are the caller's registers \p ArgRegs.
  /// When \p IsTail is true (only for main) no caller frame is recorded.
  bool enterFunction(FuncId Callee, const std::vector<Reg> &ArgRegs,
                     Reg RetDst, bool IsTail) {
    const Function &F = M.getFunction(Callee);
    assert(!F.IsExternal && "external functions run as intrinsics");

    if (!IsTail)
      Frames.push_back(Frame{CurFunc, CurBlock, CurIndex, RetDst, RegBase,
                             FrameBase,
                             F.getActivationWords()});
    else
      MainActivationWords = F.getActivationWords();

    FrameBase = Mem.getStackPointer();
    if (!Mem.growStack(F.getActivationWords())) {
      // The caller snapshot above is already on Frames but the transfer
      // never happened; halt-record construction must skip it (the live
      // caller activation is still described by Cur*).
      if (!IsTail)
        EnterFailedAfterPush = true;
      return false;
    }

    // The callee's window sits above the caller's, so arguments copy
    // straight across (by index: growing the file may reallocate).
    size_t CallerBase = RegBase;
    RegBase = RegTop;
    RegTop += F.NumRegs;
    if (RegTop > RegFile.size())
      RegFile.resize(std::max(RegTop, 2 * RegFile.size()));
    std::fill_n(RegFile.begin() + static_cast<ptrdiff_t>(RegBase), F.NumRegs,
                0);
    for (size_t I = 0; I != ArgRegs.size(); ++I)
      RegFile[RegBase + I] =
          RegFile[CallerBase + static_cast<size_t>(ArgRegs[I])];
    if (Check)
      Check->onEnter(Callee, RegFile.data() + RegBase, F.NumParams);

    if (!MCPlan) {
      ++Result.Stats.FuncEntryCounts[Callee];
    } else if (int32_t P = MCPlan->Funcs[Callee].EntryProbe; P >= 0) {
      // The entry arc fell in the co-tree; bump its probe here, on the
      // already-cold entry path (tree entry arcs cost nothing at all).
      ++Result.Stats.ArcCounts[P];
    }
    CurFunc = Callee;
    CurBlock = 0;
    CurIndex = 0;
    return true;
  }

  /// Handles a Call/CallPtr instruction; resolves the callee, dispatches
  /// intrinsics inline, or pushes a user-function activation.
  void execCall(const Instr &I) {
    if (!MCPlan) {
      ++Result.Stats.DynamicCalls;
      ++Result.Stats.SiteCounts[I.SiteId];
      if (I.Op == Opcode::CallPtr)
        ++Result.Stats.PointerCalls;
    } else {
      // If the run halts before this call completes (callee never returns,
      // trap during resolution, exit intrinsic), the halt record for this
      // activation must still credit the site — full instrumentation
      // already bumped it at this point.
      PendingCallBump = true;
    }

    FuncId Callee = I.Callee;
    if (I.Op == Opcode::CallPtr) {
      Callee = decodeFuncAddr(reg(I.Src1));
      if (Callee < 0 || static_cast<size_t>(Callee) >= M.Funcs.size()) {
        trap("indirect call through a non-function value");
        return;
      }
    }

    const Function &F = M.getFunction(Callee);
    if (F.Eliminated) {
      trap("call to eliminated function '" + F.Name + "'");
      return;
    }
    if (I.Args.size() != F.NumParams) {
      trap("call to '" + F.Name + "' with " + std::to_string(I.Args.size()) +
           " arguments; it takes " + std::to_string(F.NumParams));
      return;
    }

    if (Check)
      for (size_t Idx = 0; Idx != I.Args.size(); ++Idx)
        Check->onSiteArg(I.SiteId, Idx, reg(I.Args[Idx]));

    if (F.IsExternal) {
      ++Result.Stats.ExternalCalls;
      ++Result.Stats.FuncEntryCounts[Callee];
      int Handle = IntrinsicHandles[Callee];
      if (Handle < 0) {
        trap("call to unknown external function '" + F.Name + "'");
        return;
      }
      IntrArgs.clear();
      for (Reg A : I.Args)
        IntrArgs.push_back(reg(A));
      IntrinsicResult R = IntrinsicRegistry::invoke(Handle, IntrArgs, Io, Mem);
      if (!R.Ok) {
        trap(R.Error);
        return;
      }
      if (Io.Exited) {
        Halted = true;
        ExitedViaIntrinsic = true;
        return;
      }
      if (I.Dst != kNoReg)
        reg(I.Dst) = R.Value;
      ++CurIndex;
      PendingCallBump = false;
      return;
    }

    // Save the resume point past the call. Clearing the pending bump here
    // (not after enterFunction) is deliberate: once CurIndex moves past the
    // call, the activation's call count covers it — including the
    // stack-overflow path where enterFunction fails and Cur* still
    // describes this caller.
    ++CurIndex;
    PendingCallBump = false;
    if (!enterFunction(Callee, I.Args, I.Dst, /*IsTail=*/false))
      Halted = true;
  }

  void execRet(const Instr &I) {
    if (!MCPlan)
      ++Result.Stats.Returns;
    int64_t Value = I.Src1 != kNoReg ? reg(I.Src1) : 0;
    if (Check)
      Check->onRet(CurFunc, Value);

    if (Frames.empty()) {
      // main returned.
      Mem.shrinkStack(MainActivationWords);
      Result.ExitCode = Value;
      Halted = true;
      MainReturned = true;
      return;
    }

    RegTop = RegBase;

    Frame Top = Frames.back();
    Frames.pop_back();
    Mem.shrinkStack(Top.ActivationWords);
    CurFunc = Top.Func;
    CurBlock = Top.Block;
    CurIndex = Top.InstrIndex;
    RegBase = Top.RegBase;
    FrameBase = Top.FrameBase;
    if (Top.RetDst != kNoReg)
      reg(Top.RetDst) = Value;
  }

  /// The current block's instructions.
  const Instr *blockInstrs() const {
    return M.getFunction(CurFunc).getBlock(CurBlock).Instrs.data();
  }

  /// The dispatch loop, compiled twice: MC=false is the full-instrumentation
  /// walker (the oracle), MC=true the minimum-coverage variant that drops
  /// the per-step opcode histogram and per-arc counter bumps in favour of
  /// co-tree probes. Hot state lives in locals, where register stores cannot
  /// alias it; only a transfer of control (Jump, CondBr, Call/CallPtr, Ret)
  /// re-seats the block pointer.
  template <bool MC> void execLoopImpl() {
    const uint64_t StepLimit = Opts.StepLimit;
    ICacheSim *const ICache = Opts.ICache;
    uint64_t *const Opcodes = MC ? nullptr : Result.Stats.OpcodeCounts.data();
    uint64_t *const Arc = MC ? Result.Stats.ArcCounts.data() : nullptr;
    const Instr *Block = blockInstrs();
    // Counts executed instructions only: the one that would exceed the
    // limit never runs. InstrCount is derived from it at loop exit.
    uint64_t Steps = 0;
    while (!Halted) {
      assert(CurIndex <
                 M.getFunction(CurFunc).getBlock(CurBlock).Instrs.size() &&
             "fell off a basic block");
      const Instr &I = Block[CurIndex];
      if (Steps == StepLimit) {
        Result.St = ExecResult::Status::StepLimitExceeded;
        Result.TrapMessage = "step limit exceeded";
        break;
      }
      ++Steps;
      if (!MC)
        ++Opcodes[static_cast<size_t>(I.Op)];
      if (ICache)
        ICache->access(Layout.getAddress(CurFunc, CurBlock, CurIndex));

      switch (I.Op) {
        // The unary, binary and compare operators: one case per opcode,
        // each evaluating through ir/Opcode.h with its literal opcode.
#define IMPACT_WALK_Unary(Name)                                                \
  case Opcode::Name:                                                           \
    reg(I.Dst) = evalUnary(Opcode::Name, reg(I.Src1));                         \
    ++CurIndex;                                                                \
    break;
#define IMPACT_WALK_Binary(Name)                                               \
  case Opcode::Name:                                                           \
    if (std::optional<int64_t> V =                                             \
            evalBinary(Opcode::Name, reg(I.Src1), reg(I.Src2))) {              \
      reg(I.Dst) = *V;                                                         \
      ++CurIndex;                                                              \
    } else {                                                                   \
      trap(getBinaryTrapMessage(Opcode::Name, reg(I.Src2)));                   \
    }                                                                          \
    break;
#define IMPACT_WALK_Compare(Name) IMPACT_WALK_Binary(Name)
#define IMPACT_WALK_Other(Name)
#define IMPACT_WALK(Name, Mnemonic, Kind, Flags) IMPACT_WALK_##Kind(Name)
        IMPACT_DATA_OPCODES(IMPACT_WALK)
#undef IMPACT_WALK
#undef IMPACT_WALK_Other
#undef IMPACT_WALK_Compare
#undef IMPACT_WALK_Binary
#undef IMPACT_WALK_Unary
      case Opcode::LdImm:
        reg(I.Dst) = I.Imm;
        ++CurIndex;
        break;
      case Opcode::Load: {
        // The address is captured before the load: Dst may alias Src1.
        int64_t Addr = reg(I.Src1);
        reg(I.Dst) = Mem.load(Addr);
        if (Mem.hasTrapped())
          Halted = true;
        else if (Check)
          Check->onLoad(Addr);
        ++CurIndex;
        break;
      }
      case Opcode::Store: {
        int64_t Addr = reg(I.Src1);
        Mem.store(Addr, reg(I.Src2));
        if (Mem.hasTrapped())
          Halted = true;
        else if (Check)
          Check->onStore(Addr);
        ++CurIndex;
        break;
      }
      case Opcode::FrameAddr:
        reg(I.Dst) = FrameBase + I.Imm;
        ++CurIndex;
        break;
      case Opcode::GlobalAddr:
        reg(I.Dst) = GlobalAddrs[static_cast<size_t>(I.Imm)];
        ++CurIndex;
        break;
      case Opcode::FuncAddr:
        reg(I.Dst) = encodeFuncAddr(I.Callee);
        ++CurIndex;
        break;
      case Opcode::Call:
      case Opcode::CallPtr:
        execCall(I);
        Block = blockInstrs();
        break;
      case Opcode::Jump:
        if (MC) {
          if (int32_t P = MCPlan->Funcs[CurFunc].JumpProbes[CurBlock]; P >= 0)
            ++Arc[P];
        } else {
          ++Result.Stats.ControlTransfers;
        }
        CurBlock = I.Target;
        CurIndex = 0;
        Block = blockInstrs();
        break;
      case Opcode::CondBr: {
        bool Taken = reg(I.Src1) != 0;
        if (MC) {
          // Degenerate cond_br (equal targets) is planned as one merged arc
          // whose probe lives in TakenProbes; bump it on either outcome.
          const MinCoverFuncPlan &FP = MCPlan->Funcs[CurFunc];
          int32_t P = (Taken || I.Target == I.Target2)
                          ? FP.TakenProbes[CurBlock]
                          : FP.NotTakenProbes[CurBlock];
          if (P >= 0)
            ++Arc[P];
        } else {
          ++Result.Stats.ControlTransfers;
        }
        CurBlock = Taken ? I.Target : I.Target2;
        CurIndex = 0;
        Block = blockInstrs();
        break;
      }
      case Opcode::Ret:
        if (MC) {
          if (int32_t P = MCPlan->Funcs[CurFunc].RetProbes[CurBlock]; P >= 0)
            ++Arc[P];
        }
        execRet(I);
        Block = blockInstrs();
        break;
      }
    }

    Result.Stats.InstrCount = Steps;

    if (Result.St == ExecResult::Status::StepLimitExceeded)
      return;
    if (Mem.hasTrapped() || !PendingTrap.empty()) {
      Result.St = ExecResult::Status::Trapped;
      Result.TrapMessage =
          Mem.hasTrapped() ? Mem.getTrapMessage() : PendingTrap;
      return;
    }
    if (ExitedViaIntrinsic)
      Result.ExitCode = Io.ExitCode;
    Result.St = ExecResult::Status::Exited;
    (void)MainReturned;
  }

  /// Minimum-coverage bookkeeping for abnormal halts: one record per live
  /// activation, outermost first, capturing the block it stopped in and the
  /// number of that block's calls it already completed (counting in-flight
  /// calls for suspended callers and a halt at the call itself).
  void buildHaltRecords() {
    if (Result.St == ExecResult::Status::Exited && !ExitedViaIntrinsic)
      return; // main returned: every activation completed its block
    if (CurFunc == kNoFunc)
      return; // main was never entered
    auto CountCalls = [this](FuncId Func, BlockId Block,
                             size_t UpTo) -> uint32_t {
      const BasicBlock &B = M.getFunction(Func).getBlock(Block);
      uint32_t K = 0;
      size_t N = std::min(UpTo, B.Instrs.size());
      for (size_t I = 0; I < N; ++I)
        if (B.Instrs[I].Op == Opcode::Call ||
            B.Instrs[I].Op == Opcode::CallPtr)
          ++K;
      return K;
    };
    size_t NumFrames = Frames.size();
    if (EnterFailedAfterPush && NumFrames > 0)
      --NumFrames; // snapshot of the still-live caller, not an activation
    for (size_t I = 0; I < NumFrames; ++I) {
      const Frame &Fr = Frames[I];
      Result.Stats.Halts.push_back(
          {Fr.Func, Fr.Block, CountCalls(Fr.Func, Fr.Block, Fr.InstrIndex)});
    }
    uint32_t K = CountCalls(CurFunc, CurBlock, CurIndex) +
                 (PendingCallBump ? 1u : 0u);
    Result.Stats.Halts.push_back({CurFunc, CurBlock, K});
  }

  const Module &M;
  const RunOptions &Opts;
  const MinCoverPlan *MCPlan;
  RangeFactChecker *const Check;
  Memory Mem;
  IoEnv Io;
  ExecResult Result;

  std::vector<int64_t> GlobalAddrs;
  std::vector<int> IntrinsicHandles;
  InstructionLayout Layout;

  // Machine state.
  /// Every live activation's registers, innermost on top; the words from
  /// RegTop up are free (and dirty until a call zeroes them). Calls and
  /// returns move RegTop; the file itself only grows, by doubling.
  std::vector<int64_t> RegFile;
  size_t RegTop = 0;
  /// Argument scratch for intrinsic calls, reused across calls.
  std::vector<int64_t> IntrArgs;
  std::vector<Frame> Frames;
  FuncId CurFunc = kNoFunc;
  BlockId CurBlock = 0;
  size_t CurIndex = 0;
  size_t RegBase = 0;
  int64_t FrameBase = 0;
  int64_t MainActivationWords = 0;

  bool Halted = false;
  bool MainReturned = false;
  bool ExitedViaIntrinsic = false;
  /// Mincover: a Call/CallPtr is mid-execution in the current activation
  /// (full instrumentation would already have credited its site).
  bool PendingCallBump = false;
  /// Mincover: the last Frames entry is a failed-entry snapshot (stack
  /// overflow after push), not a live activation.
  bool EnterFailedAfterPush = false;
  std::string PendingTrap;
};

} // namespace

ExecResult impact::runProgram(const Module &M, const RunOptions &Opts) {
  Engine E(M, Opts);
  ExecResult R = E.run();
  if (Opts.FactCheck) {
    if (R.St == ExecResult::Status::Trapped)
      Opts.FactCheck->onTrap(R.TrapMessage);
    Opts.FactCheck->onRunEnd();
  }
  return R;
}

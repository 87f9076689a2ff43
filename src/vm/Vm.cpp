//===- vm/Vm.cpp - Token-threaded bytecode VM ---------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The executor half of the bytecode VM. The computed-goto dispatch loop
// itself lives in VmExecLoop.inc and is compiled twice — full
// instrumentation and minimum coverage — over the same handler bodies;
// everything cold (frame push/pop, result composition) lives here.
// Interpreter.cpp is the semantics oracle: every observable (output, exit
// code, trap strings, step accounting, profile counters) is reproduced bit
// for bit, which the differential test tier enforces.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "analysis/RangeAnalysis.h"
#include "interp/Intrinsics.h"
#include "interp/Memory.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>

using namespace impact;

namespace {

/// One pending activation (the walker's Frame, with the resume point as a
/// flat code index instead of block/instr coordinates).
struct VmFrame {
  int32_t Func;
  int32_t RetDst;
  size_t RetPC;
  size_t RegBase;
  int64_t FrameBase;
  int64_t ActivationWords;
};

class VmEngine {
public:
  VmEngine(const VmProgram &P, const RunOptions &Opts)
      : P(P), Opts(Opts), Check(Opts.FactCheck),
        Mem(P.GlobalImage, Opts.StackWords) {
    Io.Input = Opts.Input;
    Io.Input2 = Opts.Input2;
    FuncEntryCounts.assign(P.NumFuncs, 0);
    if (P.MinCover) {
      // Counter pressure leaves the loop: only the co-tree probes and the
      // measured external-entry counts exist. SiteCounts/OpcodeCounts stay
      // empty; inferCounts() rehydrates them downstream.
      ArcCounts.assign(P.NumProbes, 0);
    } else {
      SiteCounts.assign(P.NumSites, 0);
      OpcodeCounts.assign(kNumOpcodes, 0);
    }
  }

  ExecResult run() {
    if (P.MainId == kNoFunc)
      return makeTrap("module has no main function");
    const VmFunction &F = P.Funcs[P.MainId];
    if (!F.Compiled)
      return makeTrap("main function has no executable body");

    MainActivationWords = F.ActivationWords;
    MainFrameBase = Mem.getStackPointer();
    if (!Mem.growStack(F.ActivationWords))
      return finish();
    RegFile.assign(F.NumRegs, 0);
    RegBase = 0;
    RegTop = F.NumRegs;
    CurFunc = P.MainId;
    if (Check)
      Check->onEnter(P.MainId, RegFile.data(),
                     P.Callees[P.MainId].NumParams);
    if (!P.MinCover)
      ++FuncEntryCounts[P.MainId];
    else if (int32_t Pr = P.EntryProbes[P.MainId]; Pr >= 0)
      ++ArcCounts[static_cast<size_t>(Pr)];

    if (P.MinCover)
      execLoopMC();
    else
      execLoop();
    return finish();
  }

  VmRunStats RunStats;

private:
  ExecResult makeTrap(std::string Message) {
    PendingTrap = std::move(Message);
    return finish();
  }

  /// Composes the ExecResult exactly as the walker does: step-limit status
  /// wins, then traps (sticky Memory trap preferred over a pending one),
  /// then exit (intrinsic exit code overrides main's return value).
  ExecResult finish() {
    ExecResult Result;
    Result.Stats.InstrCount = ExecutedSteps;
    if (!P.MinCover) {
      Result.Stats.ControlTransfers =
          OpcodeCounts[static_cast<size_t>(Opcode::Jump)] +
          OpcodeCounts[static_cast<size_t>(Opcode::CondBr)];
      Result.Stats.DynamicCalls =
          OpcodeCounts[static_cast<size_t>(Opcode::Call)] +
          OpcodeCounts[static_cast<size_t>(Opcode::CallPtr)];
      Result.Stats.PointerCalls =
          OpcodeCounts[static_cast<size_t>(Opcode::CallPtr)];
      Result.Stats.Returns = OpcodeCounts[static_cast<size_t>(Opcode::Ret)];
    } else {
      // OpcodeCounts is empty in mincover mode; the scalar aggregates it
      // feeds are inferred from the arc counters downstream.
      buildHaltRecords(Result.Stats.Halts);
      Result.Stats.ArcCounts = std::move(ArcCounts);
    }
    Result.Stats.ExternalCalls = ExternalCallCount;
    Result.Stats.SiteCounts = std::move(SiteCounts);
    Result.Stats.FuncEntryCounts = std::move(FuncEntryCounts);
    Result.Stats.OpcodeCounts = std::move(OpcodeCounts);
    Result.Stats.PeakStackWords = Mem.getPeakStackWords();
    Result.Output = std::move(Io.Output);
    RunStats.IlSteps = ExecutedSteps;

    if (HitStepLimit) {
      Result.St = ExecResult::Status::StepLimitExceeded;
      Result.TrapMessage = "step limit exceeded";
      return Result;
    }
    if (Mem.hasTrapped() || !PendingTrap.empty()) {
      Result.St = ExecResult::Status::Trapped;
      Result.TrapMessage =
          Mem.hasTrapped() ? Mem.getTrapMessage() : std::move(PendingTrap);
      return Result;
    }
    Result.St = ExecResult::Status::Exited;
    Result.ExitCode = ExitedViaIntrinsic ? Io.ExitCode : MainExitCode;
    return Result;
  }

  /// Pushes an activation for \p Callee and re-seats the loop's hot state.
  /// Mirrors the walker's enterFunction, including its counting order: a
  /// stack overflow leaves the callee's entry count unincremented.
  bool enterUser(int32_t Callee, int32_t RetDst, const int32_t *ArgRegs,
                 int32_t NArgs, size_t RetPC, size_t &PC, const int32_t *&Code,
                 const int64_t *&Pool, const std::string *&Msgs, int64_t *&R,
                 int64_t &FrameBase) {
    const VmFunction &F = P.Funcs[Callee];
    if (!F.Compiled) {
      // Unreachable from verified modules (resolution happens at compile
      // time for direct calls and against the callee table for CallPtr).
      PendingTrap = "call to eliminated function '" + P.Callees[Callee].Name +
                    "'";
      return false;
    }
    Frames.push_back(VmFrame{CurFunc, RetDst, RetPC, RegBase, FrameBase,
                             F.ActivationWords});
    FrameBase = Mem.getStackPointer();
    if (!Mem.growStack(F.ActivationWords)) {
      // The frame just pushed never became a live activation (the walker
      // has no analogue of it); halt-record construction must skip it.
      EnterFailedAfterPush = true;
      return false;
    }

    size_t NewBase = RegTop;
    RegTop += F.NumRegs;
    if (RegTop > RegFile.size())
      RegFile.resize(std::max(RegTop, 2 * RegFile.size()));
    std::fill_n(RegFile.begin() + static_cast<ptrdiff_t>(NewBase), F.NumRegs,
                0);
    for (int32_t I = 0; I != NArgs; ++I)
      RegFile[NewBase + static_cast<size_t>(I)] =
          RegFile[RegBase + static_cast<size_t>(ArgRegs[I])];
    if (Check)
      Check->onEnter(Callee, RegFile.data() + NewBase,
                     static_cast<size_t>(NArgs));

    if (!P.MinCover)
      ++FuncEntryCounts[Callee];
    else if (int32_t Pr = P.EntryProbes[Callee]; Pr >= 0)
      ++ArcCounts[static_cast<size_t>(Pr)];
    CurFunc = Callee;
    RegBase = NewBase;
    PC = 0;
    Code = F.Code.data();
    Pool = F.Pool.data();
    Msgs = F.Msgs.data();
    R = RegFile.data() + RegBase;
    return true;
  }

  /// Streams one call site's argument values into the fact checker (cold;
  /// only reached when a checker is installed).
  void checkSiteArgs(int32_t Site, const int32_t *ArgRegs, int32_t N,
                     const int64_t *R) {
    for (int32_t I = 0; I != N; ++I)
      Check->onSiteArg(static_cast<uint32_t>(Site), static_cast<size_t>(I),
                       R[ArgRegs[I]]);
  }

  /// Maps a code offset of \p Func to (IL block, number of call IL
  /// instructions of that block preceding the token). The offset must be a
  /// token start recorded in the side map (branch stubs never appear: the
  /// loop cannot halt inside one, and no call's return PC lands on one).
  std::pair<int32_t, uint32_t> lookupToken(int32_t Func, size_t PC) const {
    const VmFunction &F = P.Funcs[Func];
    auto It = std::lower_bound(F.MapPC.begin(), F.MapPC.end(),
                               static_cast<int32_t>(PC));
    assert(It != F.MapPC.end() && *It == static_cast<int32_t>(PC) &&
           "halt PC is not a mapped token");
    size_t Idx = static_cast<size_t>(It - F.MapPC.begin());
    return {F.MapBlock[Idx], static_cast<uint32_t>(F.MapCalls[Idx])};
  }

  /// Mincover only: reconstructs the walker's HaltRecord list (one per live
  /// activation at an abnormal halt) from the token side map. Suspended
  /// frames are identified by their resume PC — the token right after the
  /// in-flight call, whose MapCalls therefore already includes it. The
  /// current activation halts at HaltPC; its call count gets +1 exactly
  /// when the halting token is a call that was already counted by the
  /// full-instrumentation engines (a trap or intrinsic exit AT the call —
  /// a step limit stops BEFORE the token executes).
  void buildHaltRecords(std::vector<HaltRecord> &Out) const {
    bool Abnormal = HitStepLimit || Mem.hasTrapped() || !PendingTrap.empty() ||
                    ExitedViaIntrinsic;
    if (!Abnormal || CurFunc == kNoFunc)
      return;
    size_t NumFrames = Frames.size();
    if (EnterFailedAfterPush && NumFrames > 0)
      --NumFrames;
    for (size_t I = 0; I != NumFrames; ++I) {
      const VmFrame &Fr = Frames[I];
      auto [B, K] = lookupToken(Fr.Func, Fr.RetPC);
      Out.push_back(HaltRecord{Fr.Func, B, K});
    }
    auto [B, K] = lookupToken(CurFunc, HaltPC);
    if (!HitStepLimit) {
      VmOp Op = static_cast<VmOp>(P.Funcs[CurFunc].Code[HaltPC]);
      if (Op == VmOp::CallUser || Op == VmOp::CallExt ||
          Op == VmOp::CallTrap || Op == VmOp::CallPtr)
        ++K;
    }
    Out.push_back(HaltRecord{CurFunc, B, K});
  }

  void execLoop();
  void execLoopMC();

  const VmProgram &P;
  const RunOptions &Opts;
  RangeFactChecker *const Check;
  Memory Mem;
  IoEnv Io;

  // Machine state shared between the loop and the cold helpers.
  /// Every live activation's registers, innermost on top; the words from
  /// RegTop up are free (and dirty until a call zeroes them). Calls and
  /// returns move RegTop; the file itself only grows, by doubling.
  std::vector<int64_t> RegFile;
  size_t RegTop = 0;
  std::vector<VmFrame> Frames;
  std::vector<int64_t> IntrArgs;
  int32_t CurFunc = kNoFunc;
  size_t RegBase = 0;
  int64_t MainFrameBase = 0;
  int64_t MainActivationWords = 0;

  // Counters and exit state, composed into ExecResult by finish().
  std::vector<uint64_t> SiteCounts;
  std::vector<uint64_t> FuncEntryCounts;
  std::vector<uint64_t> OpcodeCounts;
  std::vector<uint64_t> ArcCounts; // mincover co-tree probes, else empty
  uint64_t ExternalCallCount = 0;
  uint64_t ExecutedSteps = 0;
  int64_t MainExitCode = 0;
  bool MainReturned = false;
  bool ExitedViaIntrinsic = false;
  bool HitStepLimit = false;
  /// Code offset of the token the loop stopped at (only meaningful after an
  /// abnormal halt; see the epilogue in VmExecLoop.inc).
  size_t HaltPC = 0;
  /// enterUser pushed a frame and then failed to grow the stack; the top
  /// frame is not a live activation.
  bool EnterFailedAfterPush = false;
  std::string PendingTrap;
};

// Compile the dispatch loop twice over the same handler bodies: full
// instrumentation and minimum coverage.
#define IMPACT_VM_MINCOVER 0
#define IMPACT_VM_LOOP execLoop
#include "vm/VmExecLoop.inc"
#undef IMPACT_VM_LOOP
#undef IMPACT_VM_MINCOVER

#define IMPACT_VM_MINCOVER 1
#define IMPACT_VM_LOOP execLoopMC
#include "vm/VmExecLoop.inc"
#undef IMPACT_VM_LOOP
#undef IMPACT_VM_MINCOVER

} // namespace

ExecResult impact::runProgramVm(const VmProgram &P, const RunOptions &Opts,
                                VmRunStats *Stats) {
  VmEngine E(P, Opts);
  ExecResult Result = E.run();
  if (Stats)
    Stats->merge(E.RunStats);
  if (Opts.FactCheck) {
    if (Result.St == ExecResult::Status::Trapped)
      Opts.FactCheck->onTrap(Result.TrapMessage);
    Opts.FactCheck->onRunEnd();
  }
  return Result;
}

ExecResult impact::runProgramVm(const Module &M, const RunOptions &Opts,
                                VmRunStats *Stats) {
  if (Opts.ICache)
    return runProgram(M, Opts); // only the walker streams layout addresses
  VmProgram P = compileToBytecode(M, Opts.MinCover);
  return runProgramVm(P, Opts, Stats);
}

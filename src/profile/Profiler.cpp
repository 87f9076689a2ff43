//===- profile/Profiler.cpp ---------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/Profiler.h"

#include "support/ThreadPool.h"
#include "vm/Vm.h"

#include <mutex>

using namespace impact;

ProfileResult impact::profileProgram(const Module &M,
                                     const std::vector<RunInput> &Inputs,
                                     const RunOptions &Base,
                                     ExecEngine Engine,
                                     InstrumentMode Instrument) {
  ProfileResult Result;

  // One plan per module: both engines execute against the same co-tree, so
  // their raw arc counters are directly comparable.
  bool MC = Instrument == InstrumentMode::MinCover;
  MinCoverPlan Plan;
  if (MC)
    Plan = buildMinCoverPlan(M);

  // Compile once, run once per input. Only worth it (and only correct —
  // see the header on ICache) when the VM actually executes something.
  bool VmRuns =
      (Engine == ExecEngine::Vm && !Base.ICache) || Engine == ExecEngine::Both;
  VmProgram Compiled;
  if (VmRuns)
    Compiled = compileToBytecode(M, MC ? &Plan : nullptr);

  // Each run folds its statistics straight into Result.Data, under a lock,
  // and keeps only its output and status: the totals are sums and one max,
  // exact in any order, so the runs may finish in any order too.
  std::vector<ExecResult::Status> Status(Inputs.size());
  std::vector<std::string> Messages(Inputs.size());
  Result.Outputs.resize(Inputs.size());
  std::mutex DataMutex;
  auto RunOne = [&](size_t I) {
    RunOptions Opts = Base;
    Opts.Input = Inputs[I].Input;
    Opts.Input2 = Inputs[I].Input2;
    if (MC)
      Opts.MinCover = &Plan;

    ExecResult R;
    switch (Engine) {
    case ExecEngine::Walker:
      R = runProgram(M, Opts);
      break;
    case ExecEngine::Vm:
      R = VmRuns ? runProgramVm(Compiled, Opts) : runProgram(M, Opts);
      break;
    case ExecEngine::Both: {
      R = runProgram(M, Opts);
      ExecResult V = runProgramVm(Compiled, Opts);
      std::string Diff = describeResultDifference(R, V);
      if (!Diff.empty()) {
        R.St = ExecResult::Status::Trapped;
        R.TrapMessage = "engine divergence: " + Diff;
      }
      break;
    }
    }

    if (MC)
      R.Stats = inferCounts(M, Plan, R.Stats);
    {
      std::lock_guard<std::mutex> Lock(DataMutex);
      Result.Data.accumulate(R.Stats);
    }
    Status[I] = R.St;
    Messages[I] = std::move(R.TrapMessage);
    Result.Outputs[I] = std::move(R.Output);
  };
  // The icache simulator and the fact checker are shared sinks that see
  // one run at a time, in input order.
  if (Base.ICache || Base.FactCheck) {
    for (size_t I = 0; I != Inputs.size(); ++I)
      RunOne(I);
  } else {
    parallelFor(Inputs.size(), RunOne);
  }

  for (size_t I = 0; I != Inputs.size(); ++I) {
    if (Status[I] == ExecResult::Status::Exited)
      continue;
    Result.Failures.push_back("run " + std::to_string(I) + ": " +
                              Messages[I]);
    Result.RunFailures.push_back(
        {static_cast<unsigned>(I), Status[I], std::move(Messages[I])});
  }
  return Result;
}

//===- bench/perf_profile.cpp - Minimum-coverage profiling cost -------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trajectory measurements for the minimum-coverage profiling stack
/// (profile/MinCover.h): how much profiling-phase wall time the co-tree
/// probes save under each engine, how many counters they eliminate, and
/// what the probe plan costs to build.
///
/// One flag (run with --help for the table): --bench-json=FILE writes the
/// committed BENCH_profile.json point (atomic: temp file + rename).
/// Without it the same JSON goes to stdout.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/Compilation.h"
#include "interp/Engine.h"
#include "interp/Interpreter.h"
#include "profile/MinCover.h"
#include "suite/Suite.h"
#include "vm/Vm.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

using namespace impact;

namespace {

/// Keeps the measured work observable, so no run or plan is optimized
/// away.
volatile uint64_t Sink = 0;

/// Everything the profiling phase hoists out of its measuring runs: the
/// compiled module, the probe plan, and both bytecode images. The plan is
/// built once per module version, so the steady-state cost of the phase
/// is the runs themselves; the one-time plan cost is reported separately.
struct PreparedProgram {
  Module M;
  MinCoverPlan Plan;
  std::vector<RunInput> Inputs;
  VmProgram FullByte;
  VmProgram McByte;
};

/// One profiling pass: \p Repeat sweeps over every input of every
/// program, raw execution plus (in mincover mode) the per-run Kirchhoff
/// inference that rehydrates the profile. Returns wall seconds. \p Repeat
/// stretches the pass so that one sample is long enough to average over
/// scheduler noise (the VM finishes the suite in ~0.1s; a pass that
/// short is one co-tenant burst away from a 20% error).
double profilePass(std::vector<PreparedProgram> &Programs, ExecEngine Engine,
                   InstrumentMode Instrument, int Repeat) {
  using Clock = std::chrono::steady_clock;
  bool Mc = Instrument == InstrumentMode::MinCover;
  Clock::time_point Start = Clock::now();
  for (int Sweep = 0; Sweep != Repeat; ++Sweep)
    for (PreparedProgram &P : Programs)
      for (const RunInput &In : P.Inputs) {
        RunOptions Opts;
        Opts.Input = In.Input;
        Opts.Input2 = In.Input2;
        if (Mc)
          Opts.MinCover = &P.Plan;
        ExecResult R = Engine == ExecEngine::Vm
                           ? runProgramVm(Mc ? P.McByte : P.FullByte, Opts)
                           : runProgram(P.M, Opts);
        if (Mc)
          R.Stats = inferCounts(P.M, P.Plan, R.Stats);
        Sink = Sink + R.Stats.InstrCount;
      }
  return std::chrono::duration<double>(Clock::now() - Start).count() /
         static_cast<double>(Repeat);
}

/// Full-vs-mincover timing under \p Engine. The two modes run
/// interleaved, alternating which goes first so a monotonic drift
/// (thermal throttling, a co-tenant ramping up) biases half the samples
/// each way. The speedup is the median over ALL cross ratios
/// Full[i]/MinCover[j] — a Hodges-Lehmann-style estimator: with N
/// samples per mode it aggregates N^2 ratios, so a co-tenant burst that
/// poisons a few passes moves a minority of the ratios and the median
/// discards them. Per-pair ratios or a best-of comparison both proved
/// too fragile for the ~1-5% effects measured here.
struct PhaseComparison {
  double FullSeconds = 0.0;     // median per-sweep wall time
  double MinCoverSeconds = 0.0; // median per-sweep wall time
  double Speedup = 0.0;         // median of all Full[i]/MinCover[j] ratios
};

PhaseComparison timeProfilePhase(std::vector<PreparedProgram> &Programs,
                                 ExecEngine Engine, int Pairs, int Repeat) {
  auto median = [](std::vector<double> V) {
    std::sort(V.begin(), V.end());
    return V[V.size() / 2];
  };
  // Warm both paths (page-ins, lazy allocations) off the clock.
  (void)profilePass(Programs, Engine, InstrumentMode::Full, 1);
  (void)profilePass(Programs, Engine, InstrumentMode::MinCover, 1);
  std::vector<double> Full, Mc;
  for (int P = 0; P != Pairs; ++P) {
    if (P % 2 == 0) {
      Full.push_back(profilePass(Programs, Engine, InstrumentMode::Full,
                                 Repeat));
      Mc.push_back(profilePass(Programs, Engine, InstrumentMode::MinCover,
                               Repeat));
    } else {
      Mc.push_back(profilePass(Programs, Engine, InstrumentMode::MinCover,
                               Repeat));
      Full.push_back(profilePass(Programs, Engine, InstrumentMode::Full,
                                 Repeat));
    }
  }
  std::vector<double> Ratios;
  Ratios.reserve(Full.size() * Mc.size());
  for (double F : Full)
    for (double M : Mc)
      Ratios.push_back(M == 0.0 ? 0.0 : F / M);
  return {median(Full), median(Mc), median(Ratios)};
}

/// Measures the suite and writes the BENCH_profile.json point to \p Path,
/// or to stdout when \p Path is empty.
int writeBenchJson(const std::string &Path) {
  const unsigned Runs = 4;
  const int WalkPairs = 11, VmPairs = 15;
  using Clock = std::chrono::steady_clock;
  std::vector<PreparedProgram> Programs;
  for (const BenchmarkSpec &B : getBenchmarkSuite()) {
    CompilationResult C = compileMiniC(B.Source, B.Name);
    if (!C.Ok) {
      std::fprintf(stderr, "bench-json: %s failed to compile\n",
                   B.Name.c_str());
      return 1;
    }
    PreparedProgram P;
    P.M = std::move(C.M);
    P.Plan = buildMinCoverPlan(P.M);
    P.Inputs = makeBenchmarkInputs(B, Runs);
    P.FullByte = compileToBytecode(P.M);
    P.McByte = compileToBytecode(P.M, &P.Plan);
    Programs.push_back(std::move(P));
  }

  // Counter reduction: probes placed vs arcs in the augmented flow graphs.
  struct ArcRow {
    std::string Name;
    uint64_t Instrumented = 0;
    uint64_t Total = 0;
  };
  std::vector<ArcRow> ArcRows;
  uint64_t SuiteProbes = 0, SuiteArcs = 0;
  for (const PreparedProgram &P : Programs) {
    ArcRows.push_back({P.M.Name, P.Plan.NumProbes, P.Plan.TotalArcs});
    SuiteProbes += P.Plan.NumProbes;
    SuiteArcs += P.Plan.TotalArcs;
  }

  // The one-time cost mincover adds per module version: building the
  // probe plan for the whole suite.
  double PlanBuild = 0.0;
  {
    Clock::time_point Start = Clock::now();
    for (const PreparedProgram &P : Programs) {
      MinCoverPlan Plan = buildMinCoverPlan(P.M);
      Sink = Sink + Plan.NumProbes;
    }
    PlanBuild = std::chrono::duration<double>(Clock::now() - Start).count();
  }

  // Steady-state profiling wall time, both engines x both modes.
  PhaseComparison Walk =
      timeProfilePhase(Programs, ExecEngine::Walker, WalkPairs, 1);
  PhaseComparison Vm = timeProfilePhase(Programs, ExecEngine::Vm, VmPairs, 5);

  std::string Json;
  bench::appendFormat(Json, "{\n");
  bench::appendFormat(Json, "  \"bench\": \"profile\",\n");
  bench::appendFormat(Json, "  \"suite_programs\": %zu,\n", Programs.size());
  bench::appendFormat(Json, "  \"runs_per_program\": %u,\n", Runs);
  bench::appendFormat(Json, "  \"instrument\": {\n");
  bench::appendFormat(Json, "    \"plan_build_s\": %.6f,\n", PlanBuild);
  bench::appendFormat(Json,
                      "    \"walk\": {\"full_wall_s\": %.6f, "
                      "\"mincover_wall_s\": %.6f, \"speedup\": %.3f},\n",
                      Walk.FullSeconds, Walk.MinCoverSeconds, Walk.Speedup);
  bench::appendFormat(Json,
                      "    \"vm\": {\"full_wall_s\": %.6f, "
                      "\"mincover_wall_s\": %.6f, \"speedup\": %.3f}\n",
                      Vm.FullSeconds, Vm.MinCoverSeconds, Vm.Speedup);
  bench::appendFormat(Json, "  },\n");
  bench::appendFormat(Json, "  \"arc_reduction\": {\n");
  bench::appendFormat(Json,
                      "    \"suite\": {\"instrumented_arcs\": %llu, "
                      "\"total_arcs\": %llu, \"ratio\": %.4f},\n",
                      static_cast<unsigned long long>(SuiteProbes),
                      static_cast<unsigned long long>(SuiteArcs),
                      SuiteArcs == 0
                          ? 0.0
                          : static_cast<double>(SuiteProbes) /
                                static_cast<double>(SuiteArcs));
  bench::appendFormat(Json, "    \"programs\": [\n");
  for (size_t I = 0; I != ArcRows.size(); ++I) {
    const ArcRow &R = ArcRows[I];
    bench::appendFormat(Json,
                        "      {\"name\": \"%s\", \"instrumented\": %llu, "
                        "\"total\": %llu, \"ratio\": %.4f}%s\n",
                        R.Name.c_str(),
                        static_cast<unsigned long long>(R.Instrumented),
                        static_cast<unsigned long long>(R.Total),
                        R.Total == 0 ? 0.0
                                     : static_cast<double>(R.Instrumented) /
                                           static_cast<double>(R.Total),
                        I + 1 == ArcRows.size() ? "" : ",");
  }
  bench::appendFormat(Json, "    ]\n");
  bench::appendFormat(Json, "  }\n");
  bench::appendFormat(Json, "}\n");

  if (Path.empty()) {
    std::fputs(Json.c_str(), stdout);
    return 0;
  }
  std::string Error;
  if (!bench::writeFileAtomic(Path, Json, &Error)) {
    std::fprintf(stderr, "bench-json: %s\n", Error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "bench-json: walk %.2fx vm %.2fx probe-ratio %.2f -> %s\n",
               Walk.Speedup, Vm.Speedup,
               SuiteArcs == 0 ? 0.0
                              : static_cast<double>(SuiteProbes) /
                                    static_cast<double>(SuiteArcs),
               Path.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath;
  cli::parseCommandLine(
      argc, argv, "perf_profile",
      {cli::textFlag("bench-json", "FILE",
                     "write the BENCH_profile.json point (atomically)",
                     JsonPath)});
  return writeBenchJson(JsonPath);
}

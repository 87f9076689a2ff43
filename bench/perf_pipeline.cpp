//===- bench/perf_pipeline.cpp - compile-time cost microbenchmarks ------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark timings for the engineering side of the paper: the
/// compile-time cost of each pipeline stage (frontend, profiling
/// interpreter, call-graph construction, planning, physical expansion).
/// §2 motivates the linear order precisely as a compile-time measure, so
/// the expander's throughput is a first-class result.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "analysis/Analyzer.h"
#include "callgraph/CallGraphBuilder.h"
#include "core/InlinePass.h"
#include "driver/BatchPipeline.h"
#include "driver/Compilation.h"
#include "interp/Engine.h"
#include "profile/MinCover.h"
#include "profile/Profiler.h"
#include "suite/Suite.h"
#include "support/ThreadPool.h"
#include "vm/Vm.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace impact;

namespace {

const BenchmarkSpec &grepSpec() { return *findBenchmark("grep"); }

ExecEngine engineForArg(int64_t Arg) {
  return Arg == 0 ? ExecEngine::Walker : ExecEngine::Vm;
}

/// profileProgram's measuring runs, one input after another on this
/// thread: the same runs, inference and totals, but without its per-input
/// concurrency, so the IL/s figures below stay single-thread engine
/// throughput. Returns the executed IL steps.
uint64_t profileSerially(const Module &M, const std::vector<RunInput> &Inputs,
                         ExecEngine Engine, InstrumentMode Instrument) {
  bool MC = Instrument == InstrumentMode::MinCover;
  MinCoverPlan Plan;
  if (MC)
    Plan = buildMinCoverPlan(M);
  VmProgram Compiled;
  if (Engine == ExecEngine::Vm)
    Compiled = compileToBytecode(M, MC ? &Plan : nullptr);
  ProfileData Data;
  for (const RunInput &In : Inputs) {
    RunOptions Opts;
    Opts.Input = In.Input;
    Opts.Input2 = In.Input2;
    if (MC)
      Opts.MinCover = &Plan;
    ExecResult R = Engine == ExecEngine::Vm ? runProgramVm(Compiled, Opts)
                                            : runProgram(M, Opts);
    Data.accumulate(MC ? inferCounts(M, Plan, R.Stats) : R.Stats);
  }
  return Data.getInstrTotal();
}

/// One batch job per suite program with \p Runs profiled inputs each.
std::vector<BatchJob> makeSuiteJobs(unsigned Runs) {
  std::vector<BatchJob> Jobs;
  for (const BenchmarkSpec &B : getBenchmarkSuite()) {
    BatchJob Job;
    Job.Name = B.Name;
    Job.Source = B.Source;
    Job.Inputs = makeBenchmarkInputs(B, Runs);
    Jobs.push_back(std::move(Job));
  }
  return Jobs;
}

void BM_CompileGrep(benchmark::State &State) {
  const BenchmarkSpec &B = grepSpec();
  for (auto _ : State) {
    CompilationResult C = compileMiniC(B.Source, B.Name);
    benchmark::DoNotOptimize(C.M.size());
  }
}
BENCHMARK(BM_CompileGrep);

void BM_CompileWholeSuite(benchmark::State &State) {
  for (auto _ : State) {
    size_t Total = 0;
    for (const BenchmarkSpec &B : getBenchmarkSuite()) {
      CompilationResult C = compileMiniC(B.Source, B.Name);
      Total += C.M.size();
    }
    benchmark::DoNotOptimize(Total);
  }
}
BENCHMARK(BM_CompileWholeSuite);

// Raw measuring-run throughput under each engine: Arg(0) is the walking
// interpreter (the oracle), Arg(1) the bytecode VM. Same program, same
// input, same InstrCount per run — only the wall time differs. The VM
// row also reports the fraction of IL steps covered by a dispatched
// superinstruction.
void BM_InterpreterThroughput(benchmark::State &State) {
  ExecEngine Engine = engineForArg(State.range(0));
  const BenchmarkSpec &B = grepSpec();
  CompilationResult C = compileMiniC(B.Source, B.Name);
  VmProgram Compiled = compileToBytecode(C.M);
  std::vector<RunInput> Inputs = makeBenchmarkInputs(B, 1);
  uint64_t Instrs = 0;
  VmRunStats Fused;
  for (auto _ : State) {
    RunOptions Opts;
    Opts.Input = Inputs[0].Input;
    ExecResult R;
    if (Engine == ExecEngine::Walker) {
      R = runProgram(C.M, Opts);
    } else {
      VmRunStats Stats;
      R = runProgramVm(Compiled, Opts, &Stats);
      Fused.merge(Stats);
    }
    Instrs += R.Stats.InstrCount;
  }
  State.SetLabel(getEngineName(Engine));
  State.counters["IL/s"] = benchmark::Counter(
      static_cast<double>(Instrs), benchmark::Counter::kIsRate);
  if (Engine == ExecEngine::Vm)
    State.counters["fused_step_fraction"] = Fused.getFusedStepFraction();
}
BENCHMARK(BM_InterpreterThroughput)->Arg(0)->Arg(1);

// The profiling phase in isolation — the paper's measuring runs over the
// whole suite (modules precompiled, so this times execution only), run
// serially (profileSerially) so IL/s is single-thread engine throughput.
// Args are {engine, instrument}: engine 0=walk / 1=vm, instrument 0=full
// / 1=mincover. The vm/full row is the tentpole speedup tracked in
// BENCH_interp.json; the mincover rows are the counter-pressure speedup
// tracked in BENCH_profile.json. Accumulated profiles are bit-identical
// across all four configurations.
void BM_ProfilePhaseWholeSuite(benchmark::State &State) {
  ExecEngine Engine = engineForArg(State.range(0));
  InstrumentMode Instrument =
      State.range(1) == 0 ? InstrumentMode::Full : InstrumentMode::MinCover;
  struct Prepared {
    Module M;
    std::vector<RunInput> Inputs;
  };
  std::vector<Prepared> Programs;
  for (const BenchmarkSpec &B : getBenchmarkSuite()) {
    CompilationResult C = compileMiniC(B.Source, B.Name);
    Programs.push_back(Prepared{std::move(C.M), makeBenchmarkInputs(B, 2)});
  }
  uint64_t Instrs = 0;
  for (auto _ : State) {
    for (const Prepared &P : Programs)
      Instrs += profileSerially(P.M, P.Inputs, Engine, Instrument);
    benchmark::DoNotOptimize(Instrs);
  }
  State.SetLabel(std::string(getEngineName(Engine)) + "/" +
                 getInstrumentModeName(Instrument));
  State.counters["IL/s"] = benchmark::Counter(
      static_cast<double>(Instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ProfilePhaseWholeSuite)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

void BM_CallGraphConstruction(benchmark::State &State) {
  const BenchmarkSpec &B = grepSpec();
  CompilationResult C = compileMiniC(B.Source, B.Name);
  ProfileResult P = profileProgram(C.M, makeBenchmarkInputs(B, 2));
  for (auto _ : State) {
    CallGraph G = buildCallGraph(C.M, &P.Data);
    benchmark::DoNotOptimize(G.getArcs().size());
  }
}
BENCHMARK(BM_CallGraphConstruction);

void BM_InlineExpansionGrep(benchmark::State &State) {
  const BenchmarkSpec &B = grepSpec();
  CompilationResult C = compileMiniC(B.Source, B.Name);
  ProfileResult P = profileProgram(C.M, makeBenchmarkInputs(B, 2));
  for (auto _ : State) {
    State.PauseTiming();
    Module M = C.M; // fresh copy each iteration
    State.ResumeTiming();
    InlineResult R = runInlineExpansion(M, P.Data);
    benchmark::DoNotOptimize(R.SizeAfter);
  }
}
BENCHMARK(BM_InlineExpansionGrep);

void BM_InlineWholeSuite(benchmark::State &State) {
  struct Prepared {
    Module M;
    ProfileData Profile;
  };
  std::vector<Prepared> Programs;
  for (const BenchmarkSpec &B : getBenchmarkSuite()) {
    CompilationResult C = compileMiniC(B.Source, B.Name);
    ProfileResult P = profileProgram(C.M, makeBenchmarkInputs(B, 2));
    Programs.push_back(Prepared{std::move(C.M), std::move(P.Data)});
  }
  for (auto _ : State) {
    size_t Expanded = 0;
    for (const Prepared &P : Programs) {
      Module M = P.M;
      InlineResult R = runInlineExpansion(M, P.Profile);
      Expanded += R.getNumExpanded();
    }
    benchmark::DoNotOptimize(Expanded);
  }
}
BENCHMARK(BM_InlineWholeSuite);

// The static analyzer's cost over the whole post-inline suite: CFG
// construction, the three dataflow analyses, and the four inliner
// audits per program. This is the marginal cost of running the batch
// pipeline with --analyze.
void BM_AnalyzeWholeSuite(benchmark::State &State) {
  struct Prepared {
    Module M;
    ProfileData Profile;
    InlineResult Inline;
  };
  std::vector<Prepared> Programs;
  for (const BenchmarkSpec &B : getBenchmarkSuite()) {
    CompilationResult C = compileMiniC(B.Source, B.Name);
    ProfileResult P = profileProgram(C.M, makeBenchmarkInputs(B, 2));
    InlineResult R = runInlineExpansion(C.M, P.Data);
    Programs.push_back(
        Prepared{std::move(C.M), std::move(P.Data), std::move(R)});
  }
  AnalysisOptions Options;
  uint64_t Findings = 0;
  for (auto _ : State) {
    for (const Prepared &P : Programs) {
      AnalysisReport Report = analyzeModule(P.M, Options);
      analyzeInlineInvariants(P.M, P.Inline, P.Profile, Options, Report);
      Findings += Report.Findings.size();
      benchmark::DoNotOptimize(Report.Findings.size());
    }
  }
  State.counters["findings_per_suite"] =
      static_cast<double>(Findings) /
      static_cast<double>(State.iterations());
}
BENCHMARK(BM_AnalyzeWholeSuite)->Unit(benchmark::kMillisecond);

// The headline batch measurement: the whole 12-program experiment
// (compile → profile → inline → re-profile per program) at increasing
// worker counts. Wall-clock time should fall roughly linearly up to the
// core count; the cache counters show the shared function-definition
// cache working across programs. Results are bit-identical at every
// thread count (the ParallelDeterminism property test enforces this).
void BM_BatchPipelineSuite(benchmark::State &State) {
  unsigned Threads = static_cast<unsigned>(State.range(0));
  ExecEngine Engine = engineForArg(State.range(1));
  std::vector<BatchJob> Jobs = makeSuiteJobs(/*Runs=*/2);
  for (BatchJob &Job : Jobs)
    Job.Options.Engine = Engine;
  uint64_t Hits = 0, Misses = 0;
  double CpuSeconds = 0.0, ProfileSeconds = 0.0;
  for (auto _ : State) {
    BatchOptions Options;
    Options.Jobs = Threads;
    BatchResult R = runBatchPipeline(Jobs, Options);
    if (!R.allOk()) {
      State.SkipWithError("batch pipeline job failed");
      return;
    }
    Hits += R.Aggregate.CacheHits;
    Misses += R.Aggregate.CacheMisses;
    CpuSeconds += R.getCpuSeconds();
    ProfileSeconds +=
        R.Aggregate.ProfileSeconds + R.Aggregate.ReProfileSeconds;
    benchmark::DoNotOptimize(R.Results.size());
  }
  State.SetLabel(getEngineName(Engine));
  State.counters["cache_hits"] = static_cast<double>(Hits);
  State.counters["cache_misses"] = static_cast<double>(Misses);
  State.counters["cpu_s_per_batch"] =
      CpuSeconds / static_cast<double>(State.iterations());
  State.counters["profile_s_per_batch"] =
      ProfileSeconds / static_cast<double>(State.iterations());
}
BENCHMARK(BM_BatchPipelineSuite)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The ablation-sweep shape: the same suite recompiled many times (here,
// once per iteration). Arg(1) keeps one function-definition cache across
// iterations — after the first, every pre-opt body is served from cache;
// Arg(0) runs each job through the serial runPipeline, which attaches no
// cache.
void BM_SuiteSweepDefinitionCache(benchmark::State &State) {
  bool UseCache = State.range(0) != 0;
  std::vector<BatchJob> Jobs = makeSuiteJobs(/*Runs=*/2);
  FunctionDefinitionCache Cache;
  uint64_t Hits = 0, Misses = 0;
  for (auto _ : State) {
    if (!UseCache) {
      for (const BatchJob &Job : Jobs) {
        PipelineResult R =
            runPipeline(Job.Source, Job.Name, Job.Inputs, Job.Options);
        if (!R.Ok) {
          State.SkipWithError("pipeline job failed");
          return;
        }
        benchmark::DoNotOptimize(R.Ok);
      }
      continue;
    }
    BatchOptions Options;
    Options.Jobs = 1;
    Options.ExternalCache = &Cache;
    BatchResult R = runBatchPipeline(Jobs, Options);
    if (!R.allOk()) {
      State.SkipWithError("batch pipeline job failed");
      return;
    }
    Hits += R.Aggregate.CacheHits;
    Misses += R.Aggregate.CacheMisses;
    benchmark::DoNotOptimize(R.Results.size());
  }
  State.counters["cache_hits"] = static_cast<double>(Hits);
  State.counters["cache_misses"] = static_cast<double>(Misses);
}
BENCHMARK(BM_SuiteSweepDefinitionCache)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// --bench-json=FILE: the perf-trajectory measurement
//===----------------------------------------------------------------------===//

/// Wall-times one full profiling pass (the paper's measuring runs, run
/// serially by profileSerially) over the precompiled suite under
/// \p Engine; best of \p Reps.
struct PhaseTiming {
  double ProfileSeconds = 0.0; // best-of-reps wall time, whole suite
  uint64_t Instrs = 0;         // IL steps executed per pass
};

PhaseTiming timeProfilePhase(
    const std::vector<std::pair<Module, std::vector<RunInput>>> &Programs,
    ExecEngine Engine, int Reps) {
  using Clock = std::chrono::steady_clock;
  PhaseTiming Best;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    uint64_t Instrs = 0;
    Clock::time_point Start = Clock::now();
    for (const auto &[M, Inputs] : Programs)
      Instrs += profileSerially(M, Inputs, Engine, InstrumentMode::Full);
    double Seconds = std::chrono::duration<double>(Clock::now() - Start)
                         .count();
    if (Rep == 0 || Seconds < Best.ProfileSeconds) {
      Best.ProfileSeconds = Seconds;
      Best.Instrs = Instrs;
    }
  }
  return Best;
}

/// Measures both engines over the suite and writes the trajectory point
/// as one JSON object to \p Path. Returns 0 on success.
int writeBenchJson(const std::string &Path) {
  const unsigned Runs = 4;
  const int Reps = 3;
  std::vector<std::pair<Module, std::vector<RunInput>>> Programs;
  for (const BenchmarkSpec &B : getBenchmarkSuite()) {
    CompilationResult C = compileMiniC(B.Source, B.Name);
    if (!C.Ok) {
      std::fprintf(stderr, "bench-json: %s failed to compile\n",
                   B.Name.c_str());
      return 1;
    }
    Programs.emplace_back(std::move(C.M), makeBenchmarkInputs(B, Runs));
  }

  // Superinstruction accounting: static (compile-time fusion) and dynamic
  // (dispatched during one full profiling pass).
  VmCompileStats Static;
  VmRunStats Dynamic;
  for (const auto &[M, Inputs] : Programs) {
    VmProgram P = compileToBytecode(M);
    Static.merge(P.Stats);
    for (const RunInput &In : Inputs) {
      RunOptions Opts;
      Opts.Input = In.Input;
      Opts.Input2 = In.Input2;
      VmRunStats Stats;
      (void)runProgramVm(P, Opts, &Stats);
      Dynamic.merge(Stats);
    }
  }

  // Warm up once (page in code and inputs), then measure.
  (void)timeProfilePhase(Programs, ExecEngine::Vm, 1);
  PhaseTiming Walk = timeProfilePhase(Programs, ExecEngine::Walker, Reps);
  PhaseTiming Vm = timeProfilePhase(Programs, ExecEngine::Vm, Reps);
  double Speedup =
      Vm.ProfileSeconds == 0.0 ? 0.0 : Walk.ProfileSeconds / Vm.ProfileSeconds;

  std::string Json;
  bench::appendFormat(Json, "{\n");
  bench::appendFormat(Json, "  \"bench\": \"interp\",\n");
  bench::appendFormat(Json, "  \"suite_programs\": %zu,\n", Programs.size());
  bench::appendFormat(Json, "  \"runs_per_program\": %u,\n", Runs);
  bench::appendFormat(Json, "  \"engines\": {\n");
  bench::appendFormat(Json,
                      "    \"walk\": {\"profile_wall_s\": %.6f, \"il_per_s\": "
                      "%.0f},\n",
                      Walk.ProfileSeconds,
                      static_cast<double>(Walk.Instrs) / Walk.ProfileSeconds);
  bench::appendFormat(Json,
                      "    \"vm\": {\"profile_wall_s\": %.6f, \"il_per_s\": "
                      "%.0f}\n",
                      Vm.ProfileSeconds,
                      static_cast<double>(Vm.Instrs) / Vm.ProfileSeconds);
  bench::appendFormat(Json, "  },\n");
  bench::appendFormat(Json, "  \"profile_phase_speedup\": %.3f,\n", Speedup);
  bench::appendFormat(Json, "  \"superinstructions\": {\n");
  bench::appendFormat(Json, "    \"static_cmp_br\": %llu,\n",
                      static_cast<unsigned long long>(Static.FusedCmpBr));
  bench::appendFormat(Json, "    \"dynamic_cmp_br\": %llu,\n",
                      static_cast<unsigned long long>(Dynamic.FusedCmpBr));
  bench::appendFormat(Json, "    \"fused_step_fraction\": %.4f\n",
                      Dynamic.getFusedStepFraction());
  bench::appendFormat(Json, "  }\n");
  bench::appendFormat(Json, "}\n");
  std::string Error;
  if (!bench::writeFileAtomic(Path, Json, &Error)) {
    std::fprintf(stderr, "bench-json: %s\n", Error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "bench-json: walk %.3fs vm %.3fs speedup %.2fx -> %s\n",
               Walk.ProfileSeconds, Vm.ProfileSeconds, Speedup,
               Path.c_str());
  return 0;
}

} // namespace

// BENCHMARK_MAIN, plus one extra flag: --bench-json=FILE skips the
// google-benchmark tables and instead writes the walker-vs-VM profiling
// trajectory point (the committed BENCH_interp.json) to FILE.
int main(int argc, char **argv) {
  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    const std::string Prefix = "--bench-json=";
    if (Arg.rfind(Prefix, 0) == 0)
      return writeBenchJson(Arg.substr(Prefix.size()));
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

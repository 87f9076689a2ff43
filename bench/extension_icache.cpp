//===- bench/extension_icache.cpp - §5 instruction-cache follow-up ------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extension experiment for the paper's §5 remark (and its companion
/// study, Hwu & Chang, ISCA 1989): "Although inline expansion increases
/// the static code size, it greatly reduces the mapping conflict in
/// instruction caches with small set-associativities." We measure
/// instruction-cache miss rates before and after inline expansion on the
/// call-heavy benchmarks, across cache sizes and associativities.
/// Before inlining, each call ping-pongs between caller and callee lines
/// that may conflict; after inlining, the hot path is one contiguous run.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "cachesim/ICacheSim.h"
#include "driver/Compilation.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace impact;
using namespace impact::bench;

namespace {

/// Runs \p M once on \p In through a fresh cache; returns the miss rate.
double measureMissRate(const Module &M, const RunInput &In,
                       const ICacheConfig &Config) {
  ICacheSim Cache(Config);
  RunOptions Opts;
  Opts.Input = In.Input;
  Opts.Input2 = In.Input2;
  Opts.ICache = &Cache;
  ExecResult R = runProgram(M, Opts);
  if (!R.ok()) {
    std::fprintf(stderr, "icache run failed: %s\n", R.TrapMessage.c_str());
    std::exit(1);
  }
  return Cache.getMissRate();
}

} // namespace

int main(int argc, char **argv) {
  cli::parseCommandLine(argc, argv, "extension_icache", {});
  std::printf("Extension: instruction-cache miss rate before/after inline "
              "expansion\n");
  std::printf("(motivated by §5; shape claim: inlining helps most in "
              "small direct-mapped caches)\n\n");

  const char *Names[] = {"cccp", "compress", "grep", "lex", "espresso"};
  const uint64_t Sizes[] = {512, 1024, 2048, 4096};

  for (uint64_t Ways : {1ull, 2ull}) {
    std::printf("associativity: %llu-way, 32-byte lines, 4-byte "
                "instructions\n",
                static_cast<unsigned long long>(Ways));
    std::vector<std::string> Headers = {"benchmark"};
    for (uint64_t Size : Sizes) {
      Headers.push_back(std::to_string(Size) + "B pre");
      Headers.push_back(std::to_string(Size) + "B post");
    }
    TableWriter T(Headers);

    for (const char *Name : Names) {
      const BenchmarkSpec *B = findBenchmark(Name);
      std::vector<RunInput> Inputs = makeBenchmarkInputs(*B, 2);

      CompilationResult Pre = compileMiniC(B->Source, B->Name);
      PipelineOptions Options;
      PipelineResult Post =
          runPipeline(B->Source, B->Name, Inputs, Options);
      if (!Pre.Ok || !Post.Ok) {
        // Quarantine: drop this benchmark's row, keep the table.
        if (!Post.Ok)
          std::fprintf(stderr, "[failed] %s\n",
                       Post.Failure.render().c_str());
        else
          std::fprintf(stderr, "[failed] %s failed to build\n", Name);
        continue;
      }

      std::vector<std::string> Row = {Name};
      for (uint64_t Size : Sizes) {
        ICacheConfig Config;
        Config.CacheBytes = Size;
        Config.Ways = Ways;
        double PreRate = measureMissRate(Pre.M, Inputs[0], Config);
        double PostRate =
            measureMissRate(Post.FinalModule, Inputs[0], Config);
        Row.push_back(formatDouble(100.0 * PreRate, 2) + "%");
        Row.push_back(formatDouble(100.0 * PostRate, 2) + "%");
      }
      T.addRow(std::move(Row));
    }
    std::printf("%s\n", T.render().c_str());
  }
  return 0;
}

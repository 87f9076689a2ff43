//===- bench/perf_compile_server.cpp - Cold vs warm server compiles --------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-server experiment: how much of the world does one edit
/// recompile?
///
/// Two phases over the 12-program suite (one unit per program, one
/// profiled run each), on one server:
///
///   cold      a fresh server compiles everything (touched units == suite
///             size)
///   warm-edit one unit ("wc") is replaced; the recompile touches exactly
///             that unit and serves the other 11 programs from the
///             result cache (touched units == 1 — the number, not a
///             timing, is the incrementality claim)
///
/// Flags (run with --help for the table): --jobs, --faults, --bench-json
/// (the committed BENCH_server.json point, written atomically), and
/// --serve-script (replay a request script; exit 2 on a malformed one).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "driver/CompileServer.h"
#include "driver/ServerScript.h"
#include "support/FaultInjection.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace impact;
using namespace impact::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

ServerOptions ServerOpts; // --jobs and --faults write straight here
FaultPlan ServerFaults;   // --faults= (ServerOpts.Pipeline.Faults)

/// Loads the suite into \p Server: one unit and one single-unit program
/// per benchmark, one profiled run each.
bool loadSuite(CompileServer &Server) {
  for (const BenchmarkSpec &B : getBenchmarkSuite()) {
    std::string Error;
    if (!Server.addUnit(B.Name, B.Source, &Error) ||
        !Server.defineProgram(B.Name, {B.Name},
                              makeBenchmarkInputs(B, 1), &Error)) {
      std::fprintf(stderr, "perf_compile_server: %s\n", Error.c_str());
      return false;
    }
  }
  return true;
}

struct PhaseNumbers {
  double WallSeconds = 0.0;
  RecompileStats Stats;
};

PhaseNumbers timedRecompile(CompileServer &Server) {
  PhaseNumbers Phase;
  auto Start = std::chrono::steady_clock::now();
  Phase.Stats = Server.recompile();
  Phase.WallSeconds = secondsSince(Start);
  return Phase;
}

/// The cold/warm-edit experiment. Returns 0 on success and fills the
/// phase numbers.
int runExperiment(PhaseNumbers &Cold, PhaseNumbers &WarmEdit) {
  size_t Programs = getBenchmarkSuite().size();
  CompileServer Server(ServerOpts);
  if (!loadSuite(Server))
    return 1;
  Cold = timedRecompile(Server);
  if (Cold.Stats.FailedPrograms != 0 ||
      Cold.Stats.RecompiledPrograms != Programs) {
    std::fprintf(stderr, "perf_compile_server: cold phase failed (%llu ok, "
                         "%llu failed)\n",
                 (unsigned long long)Cold.Stats.RecompiledPrograms,
                 (unsigned long long)Cold.Stats.FailedPrograms);
    return 1;
  }

  const BenchmarkSpec *Wc = findBenchmark("wc");
  std::string Edited =
      Wc->Source + "\nint perf_server_pad(int x) { return x + 41; }\n";
  std::string Error;
  if (!Server.replaceUnit("wc", Edited, &Error)) {
    std::fprintf(stderr, "perf_compile_server: %s\n", Error.c_str());
    return 1;
  }
  WarmEdit = timedRecompile(Server);
  if (WarmEdit.Stats.TouchedUnits != 1 ||
      WarmEdit.Stats.FailedPrograms != 0) {
    std::fprintf(stderr,
                 "perf_compile_server: warm edit touched %llu unit(s), "
                 "expected exactly 1\n",
                 (unsigned long long)WarmEdit.Stats.TouchedUnits);
    return 1;
  }
  return 0;
}

void appendPhaseJson(std::string &Out, const char *Name,
                     const PhaseNumbers &Phase, bool WithClean) {
  appendFormat(Out,
               "  \"%s\": {\"wall_s\": %.3f, \"touched_units\": %llu, "
               "\"recompiled_programs\": %llu",
               Name, Phase.WallSeconds,
               (unsigned long long)Phase.Stats.TouchedUnits,
               (unsigned long long)Phase.Stats.RecompiledPrograms);
  if (WithClean)
    appendFormat(Out, ", \"clean_programs\": %llu",
                 (unsigned long long)Phase.Stats.CleanPrograms);
  Out += "}";
}

int writeBenchJson(const std::string &Path) {
  PhaseNumbers Cold, WarmEdit;
  if (int Rc = runExperiment(Cold, WarmEdit))
    return Rc;

  std::string Json = "{\n  \"bench\": \"server\",\n";
  appendFormat(Json, "  \"programs\": %zu,\n", getBenchmarkSuite().size());
  appendPhaseJson(Json, "cold", Cold, /*WithClean=*/false);
  Json += ",\n";
  appendPhaseJson(Json, "warm_edit", WarmEdit, /*WithClean=*/true);
  Json += "\n}\n";

  std::string Error;
  if (!writeFileAtomic(Path, Json, &Error)) {
    std::fprintf(stderr, "bench-json: %s\n", Error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "bench-json: cold %.3fs (%llu units) / warm edit %.3fs "
               "(%llu unit) -> %s\n",
               Cold.WallSeconds,
               (unsigned long long)Cold.Stats.TouchedUnits,
               WarmEdit.WallSeconds,
               (unsigned long long)WarmEdit.Stats.TouchedUnits,
               Path.c_str());
  return 0;
}

int runScript(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "serve-script: cannot open '%s'\n", Path.c_str());
    return 2;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();

  CompileServer Server(ServerOpts);
  ServerScriptResult Result = runServerScript(Server, Buffer.str());
  std::fputs(Result.Transcript.c_str(), stdout);
  if (!Result.Ok) {
    std::fprintf(stderr, "serve-script: %s\n", Result.Error.c_str());
    return 2;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath, ScriptPath;
  ServerOpts.Jobs = 0; // one per hardware thread, as the --jobs row says
  std::vector<cli::Flag> Flags = {makeJobsFlag(ServerOpts.Jobs)};
  for (cli::Flag &F :
       getPipelineFlags(ServerOpts.Pipeline, ServerFaults, {"faults"}))
    Flags.push_back(std::move(F));
  Flags.push_back(cli::textFlag(
      "bench-json", "FILE", "write the BENCH_server.json point (atomically)",
      JsonPath));
  Flags.push_back(cli::textFlag(
      "serve-script", "FILE",
      "drive a server from a request script (driver/ServerScript.h\n"
      "grammar) and print the transcript",
      ScriptPath));
  cli::parseCommandLine(argc, argv, "perf_compile_server", Flags);
  if (!ScriptPath.empty())
    return runScript(ScriptPath);
  if (!JsonPath.empty())
    return writeBenchJson(JsonPath);

  // No flags: run the experiment and print the numbers.
  PhaseNumbers Cold, WarmEdit;
  if (int Rc = runExperiment(Cold, WarmEdit))
    return Rc;
  std::printf("cold      %.3fs  touched=%llu recompiled=%llu\n",
              Cold.WallSeconds,
              (unsigned long long)Cold.Stats.TouchedUnits,
              (unsigned long long)Cold.Stats.RecompiledPrograms);
  std::printf("warm edit %.3fs  touched=%llu recompiled=%llu clean=%llu\n",
              WarmEdit.WallSeconds,
              (unsigned long long)WarmEdit.Stats.TouchedUnits,
              (unsigned long long)WarmEdit.Stats.RecompiledPrograms,
              (unsigned long long)WarmEdit.Stats.CleanPrograms);
  return 0;
}

//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// impact_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                  [--trace-out FILE]
///
/// Runs one workload (suite_default, suite_vm_mincover, server_edit) for
/// about S seconds after its set-up, checks every op's outputs, prints one
/// "name = value unit" line per metric, and ends with one JSON line:
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
/// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
/// variant and reports the per-layer metrics, writing its spans to FILE.
/// See perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

using namespace impact;
using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "impact_perfbench: %s\nusage: impact_perfbench --workload "
               "suite_default|suite_vm_mincover|server_edit --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               Why);
  std::exit(2);
}

bool parseUnsigned(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || Text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  try {
    Out = std::stoull(Text);
  } catch (const std::exception &) {
    return false;
  }
  return true;
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      if (!parseUnsigned(Value, A.Seed))
        usage("--seed takes a non-negative integer");
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      if (!parseUnsigned(Value, N) || N == 0 || N > 3600)
        usage("--seconds takes an integer in [1, 3600]");
      A.Seconds = static_cast<double>(N);
      HaveSeconds = true;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace takes 0 or 1");
      A.Trace = Value == "1";
      HaveTrace = true;
    } else if (Flag == "--trace-out") {
      A.TraceOut = Value;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (A.Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  return A;
}

RunReport runWorkload(const Args &A) {
  if (A.Workload == "server_edit")
    return runServerWorkload(A);
  // The suite workloads differ only in configuration; each checks its
  // outputs against the engine it does not measure.
  PipelineOptions O;
  ExecEngine Reference = ExecEngine::Vm;
  if (A.Workload == "suite_vm_mincover") {
    std::string Error;
    if (!parseEngine("vm", O.Engine, &Error) ||
        !parseInstrumentMode("mincover", O.Instrument, &Error))
      throw std::runtime_error(Error);
    Reference = ExecEngine::Walker;
  } else if (A.Workload != "suite_default") {
    usage(("unknown workload '" + A.Workload + "'").c_str());
  }
  return runSuiteWorkload(A, O, Reference);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  RunReport Report;
  try {
    Report = runWorkload(A);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "impact_perfbench: %s: %s\n", A.Workload.c_str(),
                 E.what());
    return 1;
  }

  const size_t MaxErrors = 10;
  for (size_t I = 0; I != Report.Errors.size() && I != MaxErrors; ++I)
    std::fprintf(stderr, "impact_perfbench: error: %s\n",
                 Report.Errors[I].c_str());
  if (Report.Errors.size() > MaxErrors)
    std::fprintf(stderr, "impact_perfbench: ... %zu more error(s)\n",
                 Report.Errors.size() - MaxErrors);

  std::printf("workload %s seed %llu trace %d\n", A.Workload.c_str(),
              (unsigned long long)A.Seed, A.Trace ? 1 : 0);
  std::printf("determinism digest %s\n", Report.Digest.c_str());
  for (const Metric &M : Report.Metrics)
    std::printf("  %-24s = %.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());

  bool Correct = Report.Errors.empty() && Report.Failed == 0;
  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Report.Attempted);
  Json += ", \"failed\": " + std::to_string(Report.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I != Report.Metrics.size(); ++I) {
    const Metric &M = Report.Metrics[I];
    char Value[64];
    std::snprintf(Value, sizeof(Value), "%.17g", M.Value);
    Json += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Value +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}

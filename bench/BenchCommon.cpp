//===- bench/BenchCommon.cpp ---------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/DecisionTrace.h"
#include "profile/ProfileIO.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>

using namespace impact;
using namespace impact::bench;

namespace {

PipelineOptions BaseOptions;   // the pipeline rows write straight here
FaultPlan BaseFaults;          // --faults= (BaseOptions.Faults points here)
unsigned JobCount = 0;         // --jobs (0 = one per hardware thread)
std::string TraceOutPath;      // --trace-out=FILE (JSONL decision traces)
std::string ProfileOutDir;     // --profile-out=DIR (one .profile per program)
std::string ProfileInDir;      // --profile-in=DIR (skip the measuring runs)
size_t TotalWarnFindings = 0;  // across all batches
size_t TotalErrorFindings = 0; // (error findings also quarantine units)
std::map<std::string, size_t> TotalRuleFindings; // per-rule, all batches
double TotalWallSeconds = 0.0;
double TotalCpuSeconds = 0.0;
unsigned BatchesRun = 0;
unsigned LastThreadsUsed = 1;
std::vector<UnitFailure> QuarantinedFailures; // across all batches

std::string profileFilePath(const std::string &Dir, const std::string &Name) {
  return (std::filesystem::path(Dir) / (Name + ".profile")).string();
}

} // namespace

cli::Flag impact::bench::makeJobsFlag(unsigned &Target) {
  cli::Flag F{"jobs", "N",
              "worker threads, clamped to [1, hardware threads]\n"
              "(default: one per hardware thread)",
              [&Target](const std::string &V, std::string &Error) {
                if (!parseJobCount(V, Target, &Error))
                  return false;
                if (!Error.empty())
                  std::fprintf(stderr, "[bench] --jobs: %s\n", Error.c_str());
                return true;
              }};
  F.Short = 'j';
  return F;
}

void impact::bench::initBenchHarness(int argc, char **argv) {
  std::vector<cli::Flag> Flags = {
      makeJobsFlag(JobCount),
      cli::textFlag("profile-out", "DIR",
               "save each program's main-table profile as\n"
               "DIR/<name>.profile",
               ProfileOutDir),
      cli::textFlag("profile-in", "DIR",
               "inline the main table from saved profiles, skipping\n"
               "its measuring runs",
               ProfileInDir),
      cli::textFlag("trace-out", "FILE",
               "write per-site inline decisions and findings as JSONL",
               TraceOutPath),
  };
  for (cli::Flag &F : getPipelineFlags(BaseOptions, BaseFaults))
    Flags.push_back(std::move(F));
  std::string Usage = std::filesystem::path(argv[0]).filename().string();
  cli::parseCommandLine(argc, argv, Usage, Flags);
}

const PipelineOptions &impact::bench::baseOptions() { return BaseOptions; }

void impact::bench::appendFormat(std::string &Out, const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Sized;
  va_copy(Sized, Args);
  int N = std::vsnprintf(nullptr, 0, Fmt, Sized);
  va_end(Sized);
  if (N > 0) {
    size_t Old = Out.size();
    Out.resize(Old + static_cast<size_t>(N) + 1);
    std::vsnprintf(Out.data() + Old, static_cast<size_t>(N) + 1, Fmt, Args);
    Out.resize(Old + static_cast<size_t>(N));
  }
  va_end(Args);
}

bool impact::bench::writeFileAtomic(const std::string &Path,
                                    const std::string &Contents,
                                    std::string *Error) {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out) {
      if (Error)
        *Error = "cannot open '" + Tmp + "' for writing";
      return false;
    }
    Out << Contents;
    Out.flush();
    if (!Out) {
      std::remove(Tmp.c_str());
      if (Error)
        *Error = "write to '" + Tmp + "' failed";
      return false;
    }
  }
  std::error_code Ec;
  std::filesystem::rename(Tmp, Path, Ec);
  if (Ec) {
    std::remove(Tmp.c_str());
    if (Error)
      *Error = "rename '" + Tmp + "' -> '" + Path + "' failed: " +
               Ec.message();
    return false;
  }
  return true;
}

std::vector<SuiteRun>
impact::bench::runSuiteExperiment(const PipelineOptions &Options,
                                  unsigned RunsOverride) {
  std::vector<BatchJob> Jobs;
  for (const BenchmarkSpec &B : getBenchmarkSuite()) {
    BatchJob Job;
    Job.Name = B.Name;
    Job.Source = B.Source;
    Job.Inputs = makeBenchmarkInputs(B, RunsOverride);
    Job.Options = Options;
    Jobs.push_back(std::move(Job));
  }

  // --profile-out=DIR and --profile-in=DIR belong to the bench's first
  // suite batch, its main table. Later batches (ablation sweeps) may
  // pre-optimize differently, so their profiles describe other modules:
  // they neither overwrite DIR nor replay from it.
  bool FirstBatch = BatchesRun == 0;

  // --profile-in=DIR: drive every job from its saved profile instead of
  // re-running the interpreter. The loaded profiles must outlive the
  // batch; a deque keeps the pointers stable.
  std::deque<ProfileData> LoadedProfiles;
  if (FirstBatch && !ProfileInDir.empty()) {
    for (BatchJob &Job : Jobs) {
      std::string Path = profileFilePath(ProfileInDir, Job.Name);
      std::string Error;
      ProfileData Profile;
      if (!loadProfileFromFile(Path, Profile, &Error)) {
        std::fprintf(stderr, "[bench] --profile-in: %s\n", Error.c_str());
        std::exit(1);
      }
      LoadedProfiles.push_back(std::move(Profile));
      Job.Options.ProfileIn = &LoadedProfiles.back();
    }
  }

  BatchOptions Batch;
  Batch.Jobs = JobCount;
  BatchResult R = runBatchPipeline(Jobs, Batch);

  // --profile-out=DIR: persist each job's measured profile for later
  // --profile-in runs.
  if (FirstBatch && !ProfileOutDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(ProfileOutDir, Ec);
    for (size_t I = 0; I != Jobs.size(); ++I) {
      if (!R.Results[I].Ok)
        continue;
      std::string Error;
      if (!saveProfileToFile(profileFilePath(ProfileOutDir, Jobs[I].Name),
                             R.Results[I].ProfileBefore, &Error)) {
        std::fprintf(stderr, "[bench] --profile-out: %s\n", Error.c_str());
        std::exit(1);
      }
    }
  }

  // --trace-out=FILE: append every job's per-site decision trace as JSON
  // lines (truncating on the first batch of the process).
  if (!TraceOutPath.empty()) {
    std::ofstream Trace(TraceOutPath,
                        FirstBatch ? std::ios::trunc : std::ios::app);
    if (!Trace) {
      std::fprintf(stderr, "[bench] --trace-out: cannot open '%s'\n",
                   TraceOutPath.c_str());
      std::exit(1);
    }
    for (size_t I = 0; I != Jobs.size(); ++I) {
      if (R.Results[I].Ok)
        Trace << renderDecisionTraceJson(R.Results[I].Inline.Plan,
                                         R.Results[I].FinalModule,
                                         Jobs[I].Name);
      else
        Trace << renderUnitFailureJson(R.Results[I].Failure, Jobs[I].Name);
      // Analyzer findings ride along as their own JSONL records — also
      // for quarantined units, whose error findings are the failure.
      if (Jobs[I].Options.Analyze)
        Trace << R.Results[I].Analysis.renderJsonl(Jobs[I].Name);
    }
  }

  // Warn-severity analyzer findings go to stderr (error findings surface
  // through the quarantine path below).
  for (size_t I = 0; I != Jobs.size(); ++I) {
    if (!Jobs[I].Options.Analyze)
      continue;
    TotalWarnFindings += R.Results[I].Analysis.countSeverity(Severity::Warn);
    TotalErrorFindings +=
        R.Results[I].Analysis.countSeverity(Severity::Error);
    for (const auto &[Rule, N] : R.Results[I].Analysis.countByRule())
      TotalRuleFindings[Rule] += N;
    for (const Finding &F : R.Results[I].Analysis.Findings)
      if (F.Sev == Severity::Warn)
        std::fprintf(stderr, "[analyze] %s: %s\n", Jobs[I].Name.c_str(),
                     F.render().c_str());
  }

  TotalWallSeconds += R.WallSeconds;
  TotalCpuSeconds += R.getCpuSeconds();
  LastThreadsUsed = R.ThreadsUsed;
  ++BatchesRun;

  // Quarantine, don't abort: every benchmark keeps its row (tables skip
  // failed ones), the batch as a whole succeeds as long as at least one
  // unit ran. Soundness stays fatal — a unit that *ran* and changed its
  // output after inlining is a miscompile, not a containable failure.
  const std::vector<BenchmarkSpec> &Suite = getBenchmarkSuite();
  std::vector<SuiteRun> Results;
  size_t FailedUnits = 0;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    const BenchmarkSpec &B = Suite[I];
    SuiteRun Run;
    Run.Name = B.Name;
    Run.InputDescription = B.InputDescription;
    Run.Runs = RunsOverride == 0 ? B.DefaultRuns : RunsOverride;
    Run.SourceLines = static_cast<unsigned>(
        std::count(B.Source.begin(), B.Source.end(), '\n'));
    Run.Result = std::move(R.Results[I]);
    if (!Run.Result.Ok) {
      ++FailedUnits;
      QuarantinedFailures.push_back(Run.Result.Failure);
      std::fprintf(stderr, "[failed] %s\n",
                   Run.Result.Failure.render().c_str());
    } else if (!Run.Result.outputsMatch()) {
      std::fprintf(stderr,
                   "benchmark %s: output changed after inline expansion\n",
                   B.Name.c_str());
      std::exit(1);
    }
    Results.push_back(std::move(Run));
  }
  if (FailedUnits == Jobs.size() && !Jobs.empty()) {
    std::fprintf(stderr, "[bench] all %zu units failed; aborting\n",
                 FailedUnits);
    std::exit(1);
  }
  return Results;
}

std::string impact::bench::renderBenchFooter() {
  std::string Out;
  Out += "[batch] " + std::to_string(BatchesRun) + " suite batch(es), " +
         std::to_string(LastThreadsUsed) + " thread(s): " +
         formatDuration(TotalWallSeconds) + " wall / " +
         formatDuration(TotalCpuSeconds) + " cpu";
  if (TotalWallSeconds > 0.0)
    Out += " (speedup " +
           formatDouble(TotalCpuSeconds / TotalWallSeconds, 2) + "x)";
  Out += "\n";
  // The engine, instrument and passes lines name settings that differ
  // from the PipelineOptions defaults, so default footers stay unchanged.
  const PipelineOptions Defaults;
  if (BaseOptions.Engine != Defaults.Engine)
    Out += std::string("[engine] ") + getEngineName(BaseOptions.Engine) +
           " measured the profile runs\n";
  if (BaseOptions.Instrument != Defaults.Instrument)
    Out += std::string("[instrument] ") +
           getInstrumentModeName(BaseOptions.Instrument) +
           " instrumented the profile runs\n";
  if (!(BaseOptions.PreOpt == Defaults.PreOpt))
    Out += "[passes] " + renderOptPasses(BaseOptions.PreOpt) +
           " ran as the base pre-opt pipeline (pass-set sweeps set "
           "their own)\n";
  // The analyze line appears only when the analyzer ran, so analysis-off
  // footers stay bit-identical to the previous format.
  if (BaseOptions.Analyze) {
    Out += "[analyze] " + std::to_string(TotalWarnFindings) +
           " warning(s), " + std::to_string(TotalErrorFindings) +
           " error(s) across " + std::to_string(BatchesRun) + " batch(es)";
    bool First = true;
    for (const auto &[Rule, N] : TotalRuleFindings) {
      Out += First ? " (" : ", ";
      Out += Rule + ": " + std::to_string(N);
      First = false;
    }
    if (!First)
      Out += ")";
    Out += "\n";
  }
  if (!QuarantinedFailures.empty()) {
    Out += "[failed] " + std::to_string(QuarantinedFailures.size()) +
           " unit(s) quarantined across " + std::to_string(BatchesRun) +
           " batch(es)\n";
    for (const UnitFailure &F : QuarantinedFailures)
      Out += "[failed]   " + F.render() + "\n";
  }
  return Out;
}

const std::vector<PaperTable4Row> &impact::bench::getPaperTable4() {
  static const std::vector<PaperTable4Row> Rows = {
      {"cccp", 17, 55, 506, 95},      {"cmp", 3, 49, 265, 58},
      {"compress", 4, 91, 2324, 368}, {"eqn", 22, 81, 197, 58},
      {"espresso", 24, 70, 616, 96},  {"grep", 31, 99, 11214, 4071},
      {"lex", 23, 77, 7807, 2880},    {"make", 34, 59, 388, 82},
      {"tar", 16, 43, 983, 127},      {"tee", 0, 0, 15, 6},
      {"wc", 0, 0, 18310, 5146},      {"yacc", 24, 80, 1205, 303},
  };
  return Rows;
}

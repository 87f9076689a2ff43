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

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>

using namespace impact;
using namespace impact::bench;

namespace {

unsigned ConfiguredJobs = 0; // 0 = hardware
std::string TraceOutPath;    // --trace-out=FILE (JSONL decision traces)
std::string ProfileOutDir;   // --profile-out=DIR (one .profile per program)
std::string ProfileInDir;    // --profile-in=DIR (skip the measuring runs)
FaultPlan ConfiguredFaults;  // --faults= / IMPACT_FAULTS
bool FaultsConfigured = false;
unsigned ConfiguredRetries = 0; // --retries=N
bool AnalyzeConfigured = false; // --analyze / IMPACT_ANALYZE
ExecEngine ConfiguredEngine = ExecEngine::Walker; // --engine= / IMPACT_ENGINE
bool EngineConfigured = false;
InstrumentMode ConfiguredInstrument =
    InstrumentMode::Full; // --instrument= / IMPACT_INSTRUMENT
bool InstrumentConfigured = false;
OptOptions ConfiguredPasses; // --passes= / IMPACT_PASSES
bool PassesConfigured = false;
AnalysisOptions ConfiguredAnalysis;
size_t TotalWarnFindings = 0;  // across all batches
size_t TotalErrorFindings = 0; // (error findings also quarantine units)
std::map<std::string, size_t> TotalRuleFindings; // per-rule, all batches
double TotalWallSeconds = 0.0;
double TotalCpuSeconds = 0.0;
unsigned BatchesRun = 0;
unsigned LastThreadsUsed = 1;
std::vector<UnitFailure> QuarantinedFailures; // across all batches

/// Strictly parses one job-count source; bad input is diagnosed and
/// ignored (the previous setting stands), clamps are diagnosed and used.
void applyJobCount(const char *What, const char *Text) {
  unsigned Jobs = 0;
  std::string Diag;
  if (!parseJobCount(Text, Jobs, &Diag)) {
    std::fprintf(stderr, "[bench] ignoring %s: %s\n", What, Diag.c_str());
    return;
  }
  if (!Diag.empty())
    std::fprintf(stderr, "[bench] %s: %s\n", What, Diag.c_str());
  ConfiguredJobs = Jobs;
}

/// "--<name>=VALUE" option; returns true and fills \p Value on match.
bool matchOption(const char *Arg, const char *Name, std::string &Value) {
  std::string Prefix = std::string("--") + Name + "=";
  if (std::strncmp(Arg, Prefix.c_str(), Prefix.size()) != 0)
    return false;
  Value = Arg + Prefix.size();
  return true;
}

std::string profileFilePath(const std::string &Dir, const std::string &Name) {
  return (std::filesystem::path(Dir) / (Name + ".profile")).string();
}

/// Strictly parses a fault spec. Unlike a bad --jobs value (diagnosed and
/// ignored), a bad fault spec is fatal: the caller asked for a specific
/// failure to be injected, and running without it would silently test
/// nothing. Exit code 2 distinguishes "bad invocation" from "experiment
/// failed" (1).
void applyFaultSpec(const char *What, const char *Text) {
  std::string Diag;
  if (!parseFaultPlan(Text, ConfiguredFaults, &Diag)) {
    std::fprintf(stderr, "[bench] %s: %s\n", What, Diag.c_str());
    std::exit(2);
  }
  FaultsConfigured = !ConfiguredFaults.empty();
}

/// Strictly parses an analyzer rule spec ("0"/"off" disable). Like a bad
/// fault spec, a malformed rule selection is fatal: the caller asked for
/// specific rules, and silently analyzing with different ones would
/// misreport.
void applyAnalyzeSpec(const char *What, const std::string &Text) {
  if (Text == "0" || Text == "off") {
    AnalyzeConfigured = false;
    return;
  }
  // "help" prints the rule table (names, severities, one-liners) and
  // exits successfully — the spec documents itself.
  if (Text == "help") {
    std::fputs(renderAnalysisRuleTable().c_str(), stdout);
    std::exit(0);
  }
  std::string Diag;
  if (!parseAnalysisRules(Text, ConfiguredAnalysis, &Diag)) {
    std::fprintf(stderr, "[bench] %s: %s\n", What, Diag.c_str());
    std::exit(2);
  }
  AnalyzeConfigured = true;
}

/// Strictly parses --retries=N (a non-negative integer, nothing else).
void applyRetries(const char *What, const std::string &Text) {
  unsigned Value = 0;
  const char *First = Text.data();
  const char *Last = First + Text.size();
  auto [Ptr, Ec] = std::from_chars(First, Last, Value);
  if (Ec != std::errc() || Ptr != Last || Text.empty()) {
    std::fprintf(stderr, "[bench] %s: expected a non-negative integer, got '%s'\n",
                 What, Text.c_str());
    std::exit(2);
  }
  ConfiguredRetries = Value;
}

/// Strictly parses --engine=E / IMPACT_ENGINE ("walk" | "vm" | "both").
/// Like a bad fault spec, a bad engine is fatal: benchmarking the wrong
/// engine because of a typo would silently measure the wrong thing.
void applyEngineSpec(const char *What, const std::string &Text) {
  ExecEngine Engine = ExecEngine::Walker;
  std::string Diag;
  if (!parseEngine(Text, Engine, &Diag)) {
    std::fprintf(stderr, "[bench] %s: %s\n", What, Diag.c_str());
    std::exit(2);
  }
  ConfiguredEngine = Engine;
  EngineConfigured = true;
}

/// Strictly parses --instrument=I / IMPACT_INSTRUMENT ("full" |
/// "mincover"). Fatal on a bad value for the same reason as --engine: a
/// typo would silently measure the wrong configuration.
void applyInstrumentSpec(const char *What, const std::string &Text) {
  InstrumentMode Mode = InstrumentMode::Full;
  std::string Diag;
  if (!parseInstrumentMode(Text, Mode, &Diag)) {
    std::fprintf(stderr, "[bench] %s: %s\n", What, Diag.c_str());
    std::exit(2);
  }
  ConfiguredInstrument = Mode;
  InstrumentConfigured = true;
}

/// Strictly parses --passes=SPEC / IMPACT_PASSES (opt/PassManager.h
/// parseOptPasses grammar). Fatal on an unknown pass name for the same
/// reason as --engine: a typo would silently benchmark the wrong
/// pipeline.
void applyPassesSpec(const char *What, const std::string &Text) {
  OptOptions Opts;
  std::string Diag;
  if (!parseOptPasses(Text, Opts, &Diag)) {
    std::fprintf(stderr, "[bench] %s: %s\n", What, Diag.c_str());
    std::exit(2);
  }
  ConfiguredPasses = Opts;
  PassesConfigured = true;
}

} // namespace

void impact::bench::initBenchHarness(int argc, char **argv) {
  if (const char *Env = std::getenv("IMPACT_JOBS"))
    applyJobCount("IMPACT_JOBS", Env);
  if (const char *Env = std::getenv("IMPACT_FAULTS"))
    applyFaultSpec("IMPACT_FAULTS", Env);
  if (const char *Env = std::getenv("IMPACT_ANALYZE"))
    applyAnalyzeSpec("IMPACT_ANALYZE", Env);
  if (const char *Env = std::getenv("IMPACT_ENGINE"))
    applyEngineSpec("IMPACT_ENGINE", Env);
  if (const char *Env = std::getenv("IMPACT_INSTRUMENT"))
    applyInstrumentSpec("IMPACT_INSTRUMENT", Env);
  if (const char *Env = std::getenv("IMPACT_PASSES"))
    applyPassesSpec("IMPACT_PASSES", Env);
  for (int I = 1; I < argc; ++I) {
    if ((std::strcmp(argv[I], "--jobs") == 0 ||
         std::strcmp(argv[I], "-j") == 0) &&
        I + 1 < argc) {
      applyJobCount(argv[I], argv[I + 1]);
      ++I;
      continue;
    }
    std::string Value;
    if (matchOption(argv[I], "trace-out", Value))
      TraceOutPath = Value;
    else if (matchOption(argv[I], "profile-out", Value))
      ProfileOutDir = Value;
    else if (matchOption(argv[I], "profile-in", Value))
      ProfileInDir = Value;
    else if (matchOption(argv[I], "faults", Value))
      applyFaultSpec("--faults", Value.c_str());
    else if (matchOption(argv[I], "retries", Value))
      applyRetries("--retries", Value);
    else if (matchOption(argv[I], "analyze", Value))
      applyAnalyzeSpec("--analyze", Value);
    else if (std::strcmp(argv[I], "--analyze") == 0)
      applyAnalyzeSpec("--analyze", "all");
    else if (matchOption(argv[I], "engine", Value))
      applyEngineSpec("--engine", Value);
    else if (matchOption(argv[I], "instrument", Value))
      applyInstrumentSpec("--instrument", Value);
    else if (matchOption(argv[I], "passes", Value))
      applyPassesSpec("--passes", Value);
  }
}

unsigned impact::bench::getConfiguredJobs() { return ConfiguredJobs; }

const FaultPlan *impact::bench::getConfiguredFaults() {
  return FaultsConfigured ? &ConfiguredFaults : nullptr;
}

unsigned impact::bench::getConfiguredRetries() { return ConfiguredRetries; }

bool impact::bench::getConfiguredAnalyze() { return AnalyzeConfigured; }

ExecEngine impact::bench::getConfiguredEngine() { return ConfiguredEngine; }

bool impact::bench::isEngineConfigured() { return EngineConfigured; }

InstrumentMode impact::bench::getConfiguredInstrument() {
  return ConfiguredInstrument;
}

bool impact::bench::isInstrumentConfigured() { return InstrumentConfigured; }

const OptOptions &impact::bench::getConfiguredPasses() {
  return ConfiguredPasses;
}

bool impact::bench::arePassesConfigured() { return PassesConfigured; }

const AnalysisOptions &impact::bench::getConfiguredAnalysisOptions() {
  return ConfiguredAnalysis;
}

FunctionDefinitionCache &impact::bench::getSharedDefinitionCache() {
  static FunctionDefinitionCache Cache;
  return Cache;
}

unsigned impact::bench::countSourceLines(const std::string &Source) {
  unsigned Lines = 0;
  for (char C : Source)
    Lines += C == '\n' ? 1 : 0;
  return Lines;
}

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

std::vector<BatchJob>
impact::bench::makeSuiteBatchJobs(const PipelineOptions &Options,
                                  unsigned RunsOverride) {
  std::vector<BatchJob> Jobs;
  for (const BenchmarkSpec &B : getBenchmarkSuite()) {
    BatchJob Job;
    Job.Name = B.Name;
    Job.Source = B.Source;
    Job.Inputs = makeBenchmarkInputs(B, RunsOverride);
    Job.Options = Options;
    if (!Job.Options.Faults)
      Job.Options.Faults = getConfiguredFaults();
    if (Job.Options.RetryAttempts == 0)
      Job.Options.RetryAttempts = ConfiguredRetries;
    if (AnalyzeConfigured && !Job.Options.Analyze) {
      Job.Options.Analyze = true;
      Job.Options.Analysis = ConfiguredAnalysis;
    }
    if (EngineConfigured && Job.Options.Engine == ExecEngine::Walker)
      Job.Options.Engine = ConfiguredEngine;
    if (InstrumentConfigured &&
        Job.Options.Instrument == InstrumentMode::Full)
      Job.Options.Instrument = ConfiguredInstrument;
    if (PassesConfigured && Job.Options.PreOpt == OptOptions())
      Job.Options.PreOpt = ConfiguredPasses;
    Jobs.push_back(std::move(Job));
  }
  return Jobs;
}

std::vector<SuiteRun>
impact::bench::runSuiteExperiment(const PipelineOptions &Options,
                                  unsigned RunsOverride) {
  std::vector<BatchJob> Jobs = makeSuiteBatchJobs(Options, RunsOverride);

  // --profile-in=DIR: drive every job from its saved profile instead of
  // re-running the interpreter. The loaded profiles must outlive the
  // batch; a deque keeps the pointers stable.
  std::deque<ProfileData> LoadedProfiles;
  if (!ProfileInDir.empty()) {
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
  Batch.Jobs = ConfiguredJobs;
  Batch.ExternalCache = &getSharedDefinitionCache();
  BatchResult R = runBatchPipeline(Jobs, Batch);

  // --profile-out=DIR: persist each job's measured profile for later
  // --profile-in runs.
  if (!ProfileOutDir.empty()) {
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
    static bool TraceFileStarted = false;
    std::ofstream Trace(TraceOutPath, TraceFileStarted
                                          ? std::ios::app
                                          : std::ios::trunc);
    if (!Trace) {
      std::fprintf(stderr, "[bench] --trace-out: cannot open '%s'\n",
                   TraceOutPath.c_str());
      std::exit(1);
    }
    TraceFileStarted = true;
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
    Run.SourceLines = countSourceLines(B.Source);
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
  FunctionCacheStats Cache = getSharedDefinitionCache().getStats();
  std::string Out;
  Out += "[batch] " + std::to_string(BatchesRun) + " suite batch(es), " +
         std::to_string(LastThreadsUsed) + " thread(s): " +
         formatDuration(TotalWallSeconds) + " wall / " +
         formatDuration(TotalCpuSeconds) + " cpu";
  if (TotalWallSeconds > 0.0)
    Out += " (speedup " +
           formatDouble(TotalCpuSeconds / TotalWallSeconds, 2) + "x)";
  Out += "\n[cache] " + std::to_string(Cache.Hits) + " hits / " +
         std::to_string(Cache.Misses) + " misses (" +
         formatPercent(Cache.getHitRate() * 100.0) + "), " +
         std::to_string(Cache.Entries) + " entries, " +
         std::to_string(Cache.InstrsServed) + " cached IL served\n";
  // The engine line appears only when an engine was configured
  // explicitly, so default footers stay bit-identical to the previous
  // format.
  if (EngineConfigured)
    Out += std::string("[engine] ") + getEngineName(ConfiguredEngine) +
           " measured the profile runs\n";
  // Same contract for the instrument line: absent unless configured.
  if (InstrumentConfigured)
    Out += std::string("[instrument] ") +
           getInstrumentModeName(ConfiguredInstrument) +
           " instrumented the profile runs\n";
  // Same contract for the passes line: absent unless configured.
  if (PassesConfigured)
    Out += "[passes] " + renderOptPasses(ConfiguredPasses) +
           " ran as the pre-opt pipeline\n";
  // The analyze line appears only when the analyzer ran, so analysis-off
  // footers stay bit-identical to the previous format.
  if (AnalyzeConfigured) {
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

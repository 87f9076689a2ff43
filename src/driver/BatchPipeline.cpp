//===- driver/BatchPipeline.cpp --------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/BatchPipeline.h"

#include "driver/Report.h"
#include "support/Stopwatch.h"
#include "support/ThreadPool.h"

#include <map>

using namespace impact;

bool BatchResult::allOk() const { return firstFailure() < 0; }

int BatchResult::firstFailure() const {
  for (size_t I = 0; I != Results.size(); ++I)
    if (!Results[I].Ok)
      return static_cast<int>(I);
  return -1;
}

BatchResult impact::runBatchPipeline(const std::vector<BatchJob> &Jobs,
                                     const BatchOptions &Options) {
  BatchResult Result;
  Result.Results.resize(Jobs.size());

  FunctionDefinitionCache LocalCache;
  FunctionDefinitionCache *Cache =
      Options.ExternalCache ? Options.ExternalCache : &LocalCache;

  Stopwatch Wall;
  {
    ThreadPool Pool(Options.Jobs);
    Result.ThreadsUsed = Pool.getThreadCount();
    for (size_t I = 0; I != Jobs.size(); ++I) {
      Pool.submit([&Jobs, &Result, Cache, I] {
        const BatchJob &Job = Jobs[I];
        PipelineOptions JobOptions = Job.Options;
        JobOptions.DefCache = Cache;
        // runPipeline contains every failure (including thrown
        // exceptions) as a failed result; the catch-all below is the
        // last line of defense keeping the pool's no-throw contract if
        // a future pipeline path leaks.
        try {
          if (Job.HasModule) {
            // The jobs vector is shared and const: run on a copy so a
            // server can re-dispatch the same precompiled module later.
            Module M = Job.PrecompiledModule;
            Result.Results[I] = runPipeline(std::move(M), Job.Inputs,
                                            JobOptions);
          } else {
            Result.Results[I] =
                runPipeline(Job.Source, Job.Name, Job.Inputs, JobOptions);
          }
        } catch (const std::exception &E) {
          PipelineResult &R = Result.Results[I];
          R = PipelineResult();
          R.Error = std::string("pipeline threw: ") + E.what();
          R.Failure = {Job.Name, "pipeline", "exception", E.what(), 1};
          R.Stats.UnitsFailed = 1;
        } catch (...) {
          PipelineResult &R = Result.Results[I];
          R = PipelineResult();
          R.Error = "pipeline threw an unknown exception";
          R.Failure = {Job.Name, "pipeline", "exception",
                       "unknown exception", 1};
          R.Stats.UnitsFailed = 1;
        }
      });
    }
    Pool.wait();
  }
  Result.WallSeconds = Wall.seconds();

  for (size_t I = 0; I != Result.Results.size(); ++I) {
    const PipelineResult &R = Result.Results[I];
    Result.Aggregate.merge(R.Stats);
    if (R.Ok)
      continue;
    UnitFailure F = R.Failure;
    if (F.Unit.empty())
      F.Unit = I < Jobs.size() ? Jobs[I].Name : std::to_string(I);
    if (F.Stage.empty())
      F.Stage = "pipeline";
    if (F.Detail.empty())
      F.Detail = R.Error;
    Result.Failures.push_back(std::move(F));
  }
  Result.Cache = Cache->getStats();
  return Result;
}

std::string impact::renderBatchReport(const std::vector<BatchJob> &Jobs,
                                      const BatchResult &Result) {
  // The analyze column (and findings summary below) appear only when some
  // job opted into the analyzer, so analysis-off reports stay bit-identical
  // to the previous format.
  bool AnyAnalyze = false;
  for (const BatchJob &J : Jobs)
    AnyAnalyze |= J.Options.Analyze;

  std::vector<std::string> Columns = {"job",     "status", "compile",
                                      "pre-opt", "profile", "inline"};
  if (AnyAnalyze)
    Columns.push_back("analyze");
  Columns.insert(Columns.end(), {"re-profile", "total", "cache"});
  TableWriter T(Columns);
  for (size_t I = 0; I != Result.Results.size(); ++I) {
    const PipelineResult &R = Result.Results[I];
    const PipelineStats &S = R.Stats;
    std::string CacheCell =
        std::to_string(S.CacheHits) + "h/" + std::to_string(S.CacheMisses) +
        "m";
    std::vector<std::string> Row = {
        I < Jobs.size() ? Jobs[I].Name : std::to_string(I),
        R.Ok ? "ok" : "FAILED", formatDuration(S.CompileSeconds),
        formatDuration(S.PreOptSeconds), formatDuration(S.ProfileSeconds),
        formatDuration(S.InlineSeconds)};
    if (AnyAnalyze)
      Row.push_back(formatDuration(S.AnalyzeSeconds));
    Row.insert(Row.end(), {formatDuration(S.ReProfileSeconds),
                           formatDuration(S.getTotalSeconds()), CacheCell});
    T.addRow(Row);
  }

  std::string Out = T.render();
  Out += "\nbatch: " + std::to_string(Result.ThreadsUsed) + " thread(s), " +
         formatDuration(Result.WallSeconds) + " wall, " +
         formatDuration(Result.getCpuSeconds()) + " cpu (speedup " +
         formatCount(Result.getSpeedup() * 100.0) + "% of serial)\n";
  Out += "cache: " + std::to_string(Result.Aggregate.CacheHits) + " hits / " +
         std::to_string(Result.Aggregate.CacheMisses) + " misses this batch" +
         " (" + formatPercent(Result.Cache.getHitRate() * 100.0) +
         " lifetime hit rate, " + std::to_string(Result.Cache.Entries) +
         " entries, " + std::to_string(Result.Cache.InstrsServed) +
         " cached IL served)\n";
  Out += "pre-opt work: " +
         std::to_string(Result.Aggregate.PreOpt.InstrsProcessed) +
         " IL processed across " +
         std::to_string(Result.Aggregate.PreOpt.FunctionsVisited) +
         " function(s)\n";
  if (AnyAnalyze) {
    size_t Warns = 0, Errors = 0;
    std::map<std::string, size_t> ByRule;
    for (const PipelineResult &R : Result.Results) {
      Warns += R.Analysis.countSeverity(Severity::Warn);
      Errors += R.Analysis.countSeverity(Severity::Error);
      for (const auto &[Rule, N] : R.Analysis.countByRule())
        ByRule[Rule] += N;
    }
    Out += "analyze: " + std::to_string(Warns) + " warning(s), " +
           std::to_string(Errors) + " error(s) across " +
           std::to_string(Result.Results.size()) + " unit(s)";
    bool First = true;
    for (const auto &[Rule, N] : ByRule) {
      Out += First ? " (" : ", ";
      Out += Rule + ": " + std::to_string(N);
      First = false;
    }
    if (!First)
      Out += ")";
    Out += "\n";
  }
  // Quarantine footer: only present when something failed, so fault-free
  // reports stay bit-identical to the pre-containment format.
  if (!Result.Failures.empty()) {
    Out += "[failed] " + std::to_string(Result.Failures.size()) +
           " unit(s) quarantined, batch completed\n";
    for (const UnitFailure &F : Result.Failures) {
      std::string Detail = F.Detail.substr(0, F.Detail.find('\n'));
      Out += "[failed]   " + F.Unit + ": stage=" + F.Stage +
             " reason=" + F.Reason + " attempts=" +
             std::to_string(F.Attempts) + " — " + Detail + "\n";
    }
  }
  return Out;
}

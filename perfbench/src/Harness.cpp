//===- perfbench/src/Harness.cpp ------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sys/resource.h>

using namespace impact;
using namespace perfbench;

CpuTimes CpuTimes::now() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Seconds = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + 1e-6 * T.tv_usec;
  };
  return {Seconds(U.ru_utime), Seconds(U.ru_stime)};
}

double perfbench::getPeakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * Values.size()));
  return Values[std::clamp<size_t>(Rank, 1, Values.size()) - 1];
}

double perfbench::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / Values.size());
}

namespace {

double ratio(double After, double Before) {
  return Before == 0.0 ? 1.0 : After / Before;
}

} // namespace

void Quality::addProgram(const PipelineResult &R, size_t Runs) {
  DynIlRatio.push_back(ratio(R.After.AvgInstrs, R.Before.AvgInstrs));
  DynCallsRatio.push_back(ratio(R.After.AvgCalls, R.Before.AvgCalls));
  CodeGrowth.push_back(ratio(static_cast<double>(R.After.StaticSize),
                             static_cast<double>(R.Before.StaticSize)));
  Expansions += R.Inline.getNumExpanded();
  IlExecuted += static_cast<uint64_t>(
      std::llround((R.Before.AvgInstrs + R.After.AvgInstrs) * Runs));
  SizeAfterPreopt += R.Before.StaticSize;
  SizeAfterInline += R.After.StaticSize;
  Findings += R.Analysis.Findings.size();
}

std::string Quality::digest() const {
  // FNV-1a over the exact bits of every figure.
  uint64_t H = 0xCBF29CE484222325ull;
  auto Feed = [&H](uint64_t V) {
    for (int I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xFF;
      H *= 0x100000001B3ull;
    }
  };
  for (const std::vector<double> *List : {&DynIlRatio, &DynCallsRatio,
                                          &CodeGrowth})
    for (double V : *List) {
      uint64_t Bits;
      std::memcpy(&Bits, &V, sizeof(Bits));
      Feed(Bits);
    }
  for (uint64_t V : {Expansions, IlExecuted, SizeAfterPreopt, SizeAfterInline,
                     Findings})
    Feed(V);
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)H);
  return Buf;
}

void perfbench::addEndToEndMetrics(RunReport &Report,
                                   const std::vector<double> &SetupSeconds,
                                   double OpsPerStep,
                                   const std::vector<double> &StepWalls,
                                   const std::vector<double> &LatencySeconds,
                                   double CpuSeconds, const Quality &Q) {
  Report.add("setup_s", median(SetupSeconds), "s");
  Report.add("ops_per_s", OpsPerStep / median(StepWalls), "1/s");
  Report.add("latency_p50_s", percentile(LatencySeconds, 50), "s");
  Report.add("latency_p90_s", percentile(LatencySeconds, 90), "s");
  Report.add("cpu_s_per_op", CpuSeconds / (OpsPerStep * StepWalls.size()),
             "s");
  Report.add("peak_rss_mb", getPeakRssMb(), "MB");
  Report.add("dyn_il_ratio", geomean(Q.DynIlRatio), "ratio");
  Report.add("dyn_calls_ratio", geomean(Q.DynCallsRatio), "ratio");
  Report.add("code_growth", geomean(Q.CodeGrowth), "ratio");
  Report.add("ok_ratio",
             static_cast<double>(Report.Attempted - Report.Failed) /
                 static_cast<double>(Report.Attempted),
             "ratio");
}

std::string perfbench::checkOutputs(const PipelineResult &R,
                                    const std::vector<std::string> &Reference) {
  if (!R.Ok)
    return "quarantined: " + R.Failure.render();
  if (R.OutputsBefore != Reference)
    return "pre-inline outputs differ from the reference engine's";
  if (R.OutputsAfter != Reference)
    return "post-inline outputs differ from the reference engine's";
  return "";
}

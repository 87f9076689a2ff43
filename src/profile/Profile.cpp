//===- profile/Profile.cpp ----------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/Profile.h"

using namespace impact;

void ProfileData::accumulate(const ExecStats &Stats) {
  ++NumRuns;
  if (SiteTotals.size() < Stats.SiteCounts.size())
    SiteTotals.resize(Stats.SiteCounts.size(), 0);
  for (size_t I = 0; I != Stats.SiteCounts.size(); ++I)
    SiteTotals[I] += Stats.SiteCounts[I];
  if (FuncEntryTotals.size() < Stats.FuncEntryCounts.size())
    FuncEntryTotals.resize(Stats.FuncEntryCounts.size(), 0);
  for (size_t I = 0; I != Stats.FuncEntryCounts.size(); ++I)
    FuncEntryTotals[I] += Stats.FuncEntryCounts[I];
  InstrTotal += Stats.InstrCount;
  ControlTransferTotal += Stats.ControlTransfers;
  DynamicCallTotal += Stats.DynamicCalls;
  ExternalCallTotal += Stats.ExternalCalls;
  PointerCallTotal += Stats.PointerCalls;
  if (Stats.PeakStackWords > MaxPeakStackWords)
    MaxPeakStackWords = Stats.PeakStackWords;
}

double ProfileData::getArcWeight(uint32_t SiteId) const {
  if (NumRuns == 0 || SiteId >= SiteTotals.size())
    return 0.0;
  return static_cast<double>(SiteTotals[SiteId]) / NumRuns;
}

double ProfileData::getNodeWeight(FuncId Id) const {
  if (NumRuns == 0 || Id < 0 ||
      static_cast<size_t>(Id) >= FuncEntryTotals.size())
    return 0.0;
  return static_cast<double>(FuncEntryTotals[Id]) / NumRuns;
}

uint64_t ProfileData::getSiteTotal(uint32_t SiteId) const {
  return SiteId < SiteTotals.size() ? SiteTotals[SiteId] : 0;
}

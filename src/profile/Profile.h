//===- profile/Profile.h - Accumulated profile data --------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ProfileData accumulates ExecStats over many runs and exposes the paper's
/// averaged metrics: node weights (expected function entry counts), arc
/// weights (expected call-site invocation counts), and dynamic IL /
/// control-transfer counts per typical run. "The profiler accumulates the
/// average run-time statistics over many runs of a program."
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_PROFILE_PROFILE_H
#define IMPACT_PROFILE_PROFILE_H

#include "interp/Interpreter.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace impact {

class ProfileData {
public:
  /// Folds one run's statistics into the totals.
  void accumulate(const ExecStats &Stats);

  uint64_t getNumRuns() const { return NumRuns; }

  /// Average invocations of call site \p SiteId per run — the arc weight.
  double getArcWeight(uint32_t SiteId) const;
  /// Average entries into function \p Id per run — the node weight.
  double getNodeWeight(FuncId Id) const;

  /// Total (not averaged) invocation count of a site across all runs.
  uint64_t getSiteTotal(uint32_t SiteId) const;

  double getAvgInstrs() const { return average(InstrTotal); }
  double getAvgControlTransfers() const {
    return average(ControlTransferTotal);
  }
  double getAvgDynamicCalls() const { return average(DynamicCallTotal); }
  double getAvgExternalCalls() const { return average(ExternalCallTotal); }
  double getAvgPointerCalls() const { return average(PointerCallTotal); }

  uint64_t getInstrTotal() const { return InstrTotal; }
  uint64_t getControlTransferTotal() const { return ControlTransferTotal; }
  uint64_t getDynamicCallTotal() const { return DynamicCallTotal; }
  uint64_t getExternalCallTotal() const { return ExternalCallTotal; }
  uint64_t getPointerCallTotal() const { return PointerCallTotal; }
  int64_t getMaxPeakStackWords() const { return MaxPeakStackWords; }

  size_t getNumSites() const { return SiteTotals.size(); }
  size_t getNumFuncs() const { return FuncEntryTotals.size(); }

  /// Exact equality over every accumulated total — what "bit-identical
  /// round trip" means for the profile/ProfileIO serialization (all state
  /// is integral, so text round trips lose nothing).
  friend bool operator==(const ProfileData &, const ProfileData &) = default;

private:
  /// The serializers (profile/ProfileIO.h) read and rebuild the raw totals.
  friend std::string saveProfile(const ProfileData &Profile);
  friend bool loadProfile(std::string_view Text, ProfileData &Out,
                          std::string *Error);

  double average(uint64_t Total) const {
    return NumRuns == 0 ? 0.0 : static_cast<double>(Total) / NumRuns;
  }

  uint64_t NumRuns = 0;
  std::vector<uint64_t> SiteTotals;
  std::vector<uint64_t> FuncEntryTotals;
  uint64_t InstrTotal = 0;
  uint64_t ControlTransferTotal = 0;
  uint64_t DynamicCallTotal = 0;
  uint64_t ExternalCallTotal = 0;
  uint64_t PointerCallTotal = 0;
  int64_t MaxPeakStackWords = 0;
};

} // namespace impact

#endif // IMPACT_PROFILE_PROFILE_H

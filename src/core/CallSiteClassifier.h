//===- core/CallSiteClassifier.h - external/pointer/unsafe/safe ----------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classifies every static call site into the paper's four categories
/// (Tables 2 and 3):
///
///   external — the callee body is unavailable (extern / system call),
///   pointer  — call through pointer ("defeats inline expansion"),
///   unsafe   — a direct call that either introduces a function body into a
///              recursive path with a large stack footprint (control stack
///              explosion hazard) or has an estimated execution count below
///              the threshold,
///   safe     — everything else; only safe sites are considered for
///              expansion.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_CORE_CALLSITECLASSIFIER_H
#define IMPACT_CORE_CALLSITECLASSIFIER_H

#include "callgraph/CallGraph.h"
#include "core/InlineOptions.h"
#include "profile/Profile.h"

#include <cstdint>
#include <vector>

namespace impact {

enum class SiteClass { External, Pointer, Unsafe, Safe };

/// Why a direct site landed in Unsafe.
enum class UnsafeReason {
  None,
  /// Caller is on a cycle and the callee's activation exceeds StackBound
  /// (§2.3.2's m()/n() example).
  StackHazard,
  /// Arc weight below MinArcWeight.
  LowWeight,
};

const char *getSiteClassName(SiteClass C);
const char *getUnsafeReasonName(UnsafeReason R);

/// Classification of one static call site.
struct SiteInfo {
  uint32_t SiteId = 0;
  FuncId Caller = kNoFunc;
  /// Direct callee; kNoFunc for pointer sites.
  FuncId Callee = kNoFunc;
  SiteClass Class = SiteClass::Safe;
  UnsafeReason Reason = UnsafeReason::None;
  /// Expected invocations per run (arc weight).
  double Weight = 0.0;
};

/// Whole-program classification plus the aggregates Tables 2/3 report.
struct Classification {
  std::vector<SiteInfo> Sites;

  size_t getTotalSites() const { return Sites.size(); }
  size_t countStatic(SiteClass C) const;
  /// Sum of arc weights for class \p C — the expected dynamic calls per
  /// run attributable to that class (Table 3).
  double sumDynamic(SiteClass C) const;
  double sumDynamicTotal() const;

  const SiteInfo *findSite(uint32_t SiteId) const;
};

/// Classifies every call site of \p M. \p G must have SCC info computed;
/// weights come from \p Profile.
Classification classifyCallSites(const Module &M, const CallGraph &G,
                                 const ProfileData &Profile,
                                 const InlineOptions &Options);

} // namespace impact

#endif // IMPACT_CORE_CALLSITECLASSIFIER_H

//===- support/FaultInjection.h - Deterministic fault points ---------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, site-keyed fault injection for the batch pipeline's
/// failure-containment tests. A FaultPlan is a list of rules parsed from a
/// spec string (a bench's --faults= flag); each pipeline attempt opens a
/// FaultSession that counts arrivals at named boundaries ("fault sites")
/// and fires a rule exactly at its configured occurrence. Firing is a pure
/// function of (unit, site, occurrence, attempt), so an injected failure
/// reproduces bit-for-bit across thread counts and schedules.
///
/// Spec grammar (comma-separated rules, whitespace around rules ignored):
///
///   spec := rule (',' rule)*
///   rule := [unit '/'] site ':' kind '@' occurrence ['x' attempts]
///
///   site       one of getKnownFaultSites(): parse, sema, irgen, pass,
///              cache-lookup, cache-insert, profile, expand, reprofile
///   kind       throw     - throw FaultInjectedError from the site
///              diag      - report an injected diagnostic (clean failure)
///              oom       - throw std::bad_alloc (allocation failure)
///              steplimit - force the profiled runs' step limit to 1 so
///                          the interpreter returns StepLimitExceeded;
///                          only valid at the profile/reprofile sites
///   occurrence 1-based arrival index at the site within one attempt
///   attempts   fire only on the first N attempts (a *transient* fault
///              that a retry survives); omitted = every attempt
///   unit       restrict the rule to the named compilation unit;
///              omitted = every unit
///
/// Examples: "profile:steplimit@1", "wc/pass:throw@2",
/// "cache-insert:oom@1", "grep/expand:diag@1x1" (transient).
///
/// Parsing is strict (parseFaultPlan): unknown sites or kinds, malformed
/// occurrence counts, and trailing garbage are rejected with a diagnostic
/// naming the offending rule — a typo can never silently disarm a fault.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_SUPPORT_FAULTINJECTION_H
#define IMPACT_SUPPORT_FAULTINJECTION_H

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace impact {

/// What happens when a fault rule fires.
enum class FaultKind { Throw, Diagnostic, Oom, StepLimit };

/// The exception thrown by Throw-kind rules (and the marker the pipeline
/// uses to label a failure "fault-injected" rather than "exception").
class FaultInjectedError : public std::runtime_error {
public:
  explicit FaultInjectedError(const std::string &Message)
      : std::runtime_error(Message) {}
};

/// One parsed rule: fire \p Kind at the \p Occurrence-th arrival at
/// \p Site, optionally only for \p Unit and only on the first
/// \p MaxAttempts attempts.
struct FaultRule {
  std::string Unit;        ///< Empty = any unit.
  std::string Site;        ///< One of getKnownFaultSites().
  FaultKind Kind = FaultKind::Throw;
  uint64_t Occurrence = 1; ///< 1-based arrival index within one attempt.
  uint64_t MaxAttempts = 0; ///< Fire on attempts <= this; 0 = always.
};

struct FaultPlan {
  std::vector<FaultRule> Rules;
  bool empty() const { return Rules.empty(); }
};

/// The sites the pipeline currently reaches, in pipeline order.
const std::vector<std::string> &getKnownFaultSites();

/// "throw" / "diag" / "oom" / "steplimit".
const char *formatFaultKind(FaultKind Kind);

/// Strictly parses \p Spec into \p Plan (replacing its rules). Returns
/// false with \p Diag explaining the offending rule on any malformed
/// input: empty rules, unknown site or kind names, non-positive or
/// garbage occurrence/attempt counts, or a steplimit kind outside the
/// profile/reprofile sites. On success \p Diag (when non-null) is
/// cleared. An empty or all-whitespace spec parses to an empty plan.
bool parseFaultPlan(std::string_view Spec, FaultPlan &Plan,
                    std::string *Diag = nullptr);

/// Renders \p Plan back into spec form (parse/render round-trips).
std::string renderFaultPlan(const FaultPlan &Plan);

/// Per-unit, per-attempt fault state. Cheap to construct; a
/// default-constructed (or null-plan) session is inert and reach() is a
/// no-op returning nullopt. Sessions are confined to one pipeline
/// attempt on one thread — occurrence counters are never shared, which
/// is what keeps injection deterministic under the batch scheduler.
class FaultSession {
public:
  FaultSession() = default;
  FaultSession(const FaultPlan *Plan, std::string Unit, unsigned Attempt = 1)
      : Plan(Plan && !Plan->empty() ? Plan : nullptr),
        CountHits(Plan != nullptr), Unit(std::move(Unit)), Attempt(Attempt) {}

  /// Counts one arrival at \p Site. When a rule fires here: Throw-kind
  /// rules throw FaultInjectedError, Oom-kind rules throw
  /// std::bad_alloc, and Diagnostic/StepLimit kinds are returned for the
  /// caller to apply at its boundary. Returns nullopt when nothing
  /// fires.
  std::optional<FaultKind> reach(std::string_view Site);

  /// True when constructed over a non-null plan (even an empty one —
  /// an empty plan still counts arrivals, which is how tests discover
  /// each site's occurrence range).
  bool isActive() const { return CountHits; }

  /// Arrivals per site so far, sorted by site name.
  std::vector<std::pair<std::string, uint64_t>> getSiteHits() const;

private:
  const FaultPlan *Plan = nullptr;
  bool CountHits = false;
  std::string Unit;
  unsigned Attempt = 1;
  std::map<std::string, uint64_t> Hits;
};

} // namespace impact

#endif // IMPACT_SUPPORT_FAULTINJECTION_H

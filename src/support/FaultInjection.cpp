//===- support/FaultInjection.cpp ------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "support/StringUtils.h"

#include <charconv>
#include <new>

using namespace impact;

const std::vector<std::string> &impact::getKnownFaultSites() {
  static const std::vector<std::string> Sites = {
      "parse", "sema", "irgen", "pass", "profile", "expand", "reprofile"};
  return Sites;
}

const char *impact::formatFaultKind(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::Throw:
    return "throw";
  case FaultKind::Diagnostic:
    return "diag";
  case FaultKind::Oom:
    return "oom";
  case FaultKind::StepLimit:
    return "steplimit";
  }
  return "?";
}

namespace {

bool isKnownSite(std::string_view Site) {
  for (const std::string &S : getKnownFaultSites())
    if (S == Site)
      return true;
  return false;
}

std::string knownSiteList() {
  std::string Out;
  for (const std::string &S : getKnownFaultSites()) {
    if (!Out.empty())
      Out += ", ";
    Out += S;
  }
  return Out;
}

bool parseKind(std::string_view Text, FaultKind &Kind) {
  if (Text == "throw")
    Kind = FaultKind::Throw;
  else if (Text == "diag")
    Kind = FaultKind::Diagnostic;
  else if (Text == "oom")
    Kind = FaultKind::Oom;
  else if (Text == "steplimit")
    Kind = FaultKind::StepLimit;
  else
    return false;
  return true;
}

/// Strict positive-integer parse: no sign, no trailing garbage, no empty.
bool parsePositive(std::string_view Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  uint64_t Value = 0;
  auto [Ptr, Ec] =
      std::from_chars(Text.data(), Text.data() + Text.size(), Value);
  if (Ec != std::errc() || Ptr != Text.data() + Text.size() || Value == 0)
    return false;
  Out = Value;
  return true;
}

bool fail(std::string *Diag, std::string Message) {
  if (Diag)
    *Diag = std::move(Message);
  return false;
}

/// Parses one `[unit '/'] site ':' kind '@' occ ['x' attempts]` rule.
bool parseRule(std::string_view Text, FaultRule &Rule, std::string *Diag) {
  std::string Context = "invalid fault rule '" + std::string(Text) + "': ";

  if (size_t Slash = Text.find('/'); Slash != std::string_view::npos) {
    Rule.Unit = std::string(trimString(Text.substr(0, Slash)));
    if (Rule.Unit.empty())
      return fail(Diag, Context + "empty unit name before '/'");
    Text = Text.substr(Slash + 1);
  }

  size_t Colon = Text.find(':');
  if (Colon == std::string_view::npos)
    return fail(Diag, Context + "expected 'site:kind@occurrence'");
  std::string_view Site = trimString(Text.substr(0, Colon));
  if (!isKnownSite(Site))
    return fail(Diag, Context + "unknown site '" + std::string(Site) +
                          "' (known sites: " + knownSiteList() + ")");
  Rule.Site = std::string(Site);

  std::string_view Rest = Text.substr(Colon + 1);
  size_t At = Rest.find('@');
  if (At == std::string_view::npos)
    return fail(Diag, Context + "missing '@occurrence'");
  std::string_view Kind = trimString(Rest.substr(0, At));
  if (!parseKind(Kind, Rule.Kind))
    return fail(Diag, Context + "unknown kind '" + std::string(Kind) +
                          "' (known kinds: throw, diag, oom, steplimit)");
  if (Rule.Kind == FaultKind::StepLimit && Rule.Site != "profile" &&
      Rule.Site != "reprofile")
    return fail(Diag, Context + "kind 'steplimit' is only valid at the "
                                "profile/reprofile sites");

  std::string_view Counts = trimString(Rest.substr(At + 1));
  std::string_view Occ = Counts;
  if (size_t X = Counts.find('x'); X != std::string_view::npos) {
    Occ = trimString(Counts.substr(0, X));
    std::string_view Attempts = trimString(Counts.substr(X + 1));
    if (!parsePositive(Attempts, Rule.MaxAttempts))
      return fail(Diag, Context + "invalid attempt bound '" +
                            std::string(Attempts) +
                            "' (expected a positive integer)");
  }
  if (!parsePositive(Occ, Rule.Occurrence))
    return fail(Diag, Context + "invalid occurrence '" + std::string(Occ) +
                          "' (expected a positive integer)");
  return true;
}

} // namespace

bool impact::parseFaultPlan(std::string_view Spec, FaultPlan &Plan,
                            std::string *Diag) {
  FaultPlan Parsed;
  if (!trimString(Spec).empty()) {
    for (std::string_view RuleText : splitString(Spec, ',')) {
      RuleText = trimString(RuleText);
      if (RuleText.empty())
        return fail(Diag, "invalid fault spec '" + std::string(Spec) +
                              "': empty rule");
      FaultRule Rule;
      if (!parseRule(RuleText, Rule, Diag))
        return false;
      Parsed.Rules.push_back(std::move(Rule));
    }
  }
  Plan = std::move(Parsed);
  if (Diag)
    Diag->clear();
  return true;
}

std::string impact::renderFaultPlan(const FaultPlan &Plan) {
  std::string Out;
  for (const FaultRule &Rule : Plan.Rules) {
    if (!Out.empty())
      Out += ",";
    if (!Rule.Unit.empty())
      Out += Rule.Unit + "/";
    Out += Rule.Site + ":" + formatFaultKind(Rule.Kind) + "@" +
           std::to_string(Rule.Occurrence);
    if (Rule.MaxAttempts != 0)
      Out += "x" + std::to_string(Rule.MaxAttempts);
  }
  return Out;
}

std::optional<FaultKind> FaultSession::reach(std::string_view Site) {
  if (!CountHits)
    return std::nullopt;
  uint64_t Count = ++Hits[std::string(Site)];
  if (!Plan)
    return std::nullopt;
  for (const FaultRule &Rule : Plan->Rules) {
    if (Rule.Site != Site || Rule.Occurrence != Count)
      continue;
    if (!Rule.Unit.empty() && Rule.Unit != Unit)
      continue;
    if (Rule.MaxAttempts != 0 && Attempt > Rule.MaxAttempts)
      continue;
    switch (Rule.Kind) {
    case FaultKind::Throw:
      throw FaultInjectedError("injected fault at " + std::string(Site) +
                               " (occurrence " + std::to_string(Count) +
                               ")");
    case FaultKind::Oom:
      throw std::bad_alloc();
    case FaultKind::Diagnostic:
    case FaultKind::StepLimit:
      return Rule.Kind;
    }
  }
  return std::nullopt;
}

std::vector<std::pair<std::string, uint64_t>>
FaultSession::getSiteHits() const {
  return {Hits.begin(), Hits.end()};
}

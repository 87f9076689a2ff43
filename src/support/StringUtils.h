//===- support/StringUtils.h - Small string helpers -----------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef IMPACT_SUPPORT_STRINGUTILS_H
#define IMPACT_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace impact {

/// Splits \p Text on \p Sep; empty fields are kept.
std::vector<std::string_view> splitString(std::string_view Text, char Sep);

/// Returns \p Text with ASCII whitespace removed from both ends.
std::string_view trimString(std::string_view Text);

/// Returns true if \p Text starts with \p Prefix.
bool startsWith(std::string_view Text, std::string_view Prefix);

/// Formats \p Value with a fixed number of fractional digits (printf "%.*f").
std::string formatDouble(double Value, unsigned Digits);

/// Left-pads \p Text with spaces to at least \p Width columns.
std::string padLeft(std::string_view Text, unsigned Width);

/// Right-pads \p Text with spaces to at least \p Width columns.
std::string padRight(std::string_view Text, unsigned Width);

/// Formats an integer count with thousands separators ("12,345").
std::string formatWithCommas(int64_t Value);

/// The candidate nearest to \p Word in edit distance, or "" when none is
/// within a typo's reach (max(2, |Word| / 3) edits) — the did-you-mean
/// suggestion of the strict spec and flag parsers.
std::string_view findClosestMatch(std::string_view Word,
                                  const std::vector<std::string_view> &Candidates);

/// Escapes \p Text for use inside a JSON string literal (quotes,
/// backslashes, and control characters).
std::string jsonEscape(std::string_view Text);

} // namespace impact

#endif // IMPACT_SUPPORT_STRINGUTILS_H

//===- profile/ProfileIO.cpp ---------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/ProfileIO.h"

#include "support/StringUtils.h"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>

using namespace impact;

namespace {

constexpr std::string_view kMagic = "impact-profile v1";

void appendSparse(std::string &Out, std::string_view Key,
                  const std::vector<uint64_t> &Totals) {
  Out += std::string(Key) + " " + std::to_string(Totals.size()) + "\n";
  for (size_t I = 0; I != Totals.size(); ++I)
    if (Totals[I] != 0)
      Out += std::to_string(I) + " " + std::to_string(Totals[I]) + "\n";
}

/// A line cursor over the profile text; skips blank lines and tracks the
/// 1-based physical line number for diagnostics.
class LineReader {
public:
  explicit LineReader(std::string_view Text) : Rest(Text) {}

  bool next(std::string_view &Line) {
    while (!Rest.empty()) {
      size_t End = Rest.find('\n');
      Line = End == std::string_view::npos ? Rest : Rest.substr(0, End);
      Rest = End == std::string_view::npos ? std::string_view()
                                           : Rest.substr(End + 1);
      ++Num;
      Line = trimString(Line);
      if (!Line.empty())
        return true;
    }
    return false;
  }

  /// Line number of the line most recently returned by next().
  size_t lineNumber() const { return Num; }

private:
  std::string_view Rest;
  size_t Num = 0;
};

template <typename IntT> bool parseInt(std::string_view Text, IntT &Out) {
  Text = trimString(Text);
  if (Text.empty())
    return false;
  auto [Ptr, Ec] = std::from_chars(Text.data(), Text.data() + Text.size(),
                                   Out);
  return Ec == std::errc() && Ptr == Text.data() + Text.size();
}

bool fail(std::string *Error, std::string Message) {
  if (Error)
    *Error = std::move(Message);
  return false;
}

/// Reads "<key> <integer>".
template <typename IntT>
bool readKeyed(LineReader &Lines, std::string_view Key, IntT &Out,
               std::string *Error) {
  std::string_view Line;
  if (!Lines.next(Line))
    return fail(Error, "profile truncated before '" + std::string(Key) + "'");
  if (!startsWith(Line, Key) || Line.size() <= Key.size() ||
      Line[Key.size()] != ' ')
    return fail(Error, "expected '" + std::string(Key) + " <n>', got '" +
                           std::string(Line) + "'");
  if (!parseInt(Line.substr(Key.size() + 1), Out))
    return fail(Error, "bad number in '" + std::string(Line) + "'");
  return true;
}

/// Reads a "<key> <size>" header plus the "index total" lines that follow,
/// stopping (without consuming) at \p Stop or end of input. Unlisted
/// indices stay zero, so the writer's sparse form reloads exactly.
bool readSparse(LineReader &Lines, std::string_view Key,
                std::string_view Stop, std::vector<uint64_t> &Out,
                std::string *Error) {
  uint64_t Size = 0;
  if (!readKeyed(Lines, Key, Size, Error))
    return false;
  if (Size > kMaxProfileSectionEntries)
    return fail(Error, "line " + std::to_string(Lines.lineNumber()) + ": '" +
                           std::string(Key) + "' size " +
                           std::to_string(Size) + " exceeds the budget of " +
                           std::to_string(kMaxProfileSectionEntries) +
                           " entries");
  Out.assign(Size, 0);
  // Strict parse: every index at most once. Entries are accepted in any
  // order, but a repeat is an error — silently keeping the last value
  // would mask corrupt or doubly-concatenated artifacts.
  std::vector<bool> Seen(Size, false);
  for (;;) {
    LineReader Mark = Lines;
    std::string_view Entry;
    if (!Lines.next(Entry))
      return true;
    if (!Stop.empty() && startsWith(Entry, Stop)) {
      Lines = Mark; // leave the next section's header for the caller
      return true;
    }
    size_t Space = Entry.find(' ');
    uint64_t Index = 0, Total = 0;
    if (Space == std::string_view::npos ||
        !parseInt(Entry.substr(0, Space), Index) ||
        !parseInt(Entry.substr(Space + 1), Total))
      return fail(Error, "bad '" + std::string(Key) + "' entry '" +
                             std::string(Entry) + "'");
    if (Index >= Size)
      return fail(Error, "'" + std::string(Key) + "' index " +
                             std::to_string(Index) + " out of range (size " +
                             std::to_string(Size) + ")");
    if (Seen[Index])
      return fail(Error, "line " + std::to_string(Lines.lineNumber()) +
                             ": duplicate '" + std::string(Key) +
                             "' entry for index " + std::to_string(Index));
    Seen[Index] = true;
    Out[Index] = Total;
  }
}

} // namespace

std::string impact::saveProfile(const ProfileData &Profile) {
  std::string Out;
  Out += std::string(kMagic) + "\n";
  Out += "runs " + std::to_string(Profile.NumRuns) + "\n";
  Out += "il " + std::to_string(Profile.InstrTotal) + "\n";
  Out += "ct " + std::to_string(Profile.ControlTransferTotal) + "\n";
  Out += "calls " + std::to_string(Profile.DynamicCallTotal) + "\n";
  Out += "external " + std::to_string(Profile.ExternalCallTotal) + "\n";
  Out += "pointer " + std::to_string(Profile.PointerCallTotal) + "\n";
  Out += "peak-stack " + std::to_string(Profile.MaxPeakStackWords) + "\n";
  appendSparse(Out, "sites", Profile.SiteTotals);
  appendSparse(Out, "funcs", Profile.FuncEntryTotals);
  return Out;
}

bool impact::loadProfile(std::string_view Text, ProfileData &Out,
                         std::string *Error) {
  Out = ProfileData();
  LineReader Lines(Text);

  std::string_view Line;
  if (!Lines.next(Line) || Line != kMagic)
    return fail(Error, "missing '" + std::string(kMagic) + "' header");

  if (!readKeyed(Lines, "runs", Out.NumRuns, Error) ||
      !readKeyed(Lines, "il", Out.InstrTotal, Error) ||
      !readKeyed(Lines, "ct", Out.ControlTransferTotal, Error) ||
      !readKeyed(Lines, "calls", Out.DynamicCallTotal, Error) ||
      !readKeyed(Lines, "external", Out.ExternalCallTotal, Error) ||
      !readKeyed(Lines, "pointer", Out.PointerCallTotal, Error) ||
      !readKeyed(Lines, "peak-stack", Out.MaxPeakStackWords, Error))
    return false;

  return readSparse(Lines, "sites", "funcs ", Out.SiteTotals, Error) &&
         readSparse(Lines, "funcs", "", Out.FuncEntryTotals, Error);
}

bool impact::saveProfileToFile(const std::string &Path,
                               const ProfileData &Profile,
                               std::string *Error) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return fail(Error, "cannot open '" + Path + "' for writing");
  Out << saveProfile(Profile);
  Out.flush();
  if (!Out)
    return fail(Error, "write to '" + Path + "' failed");
  return true;
}

bool impact::loadProfileFromFile(const std::string &Path, ProfileData &Out,
                                 std::string *Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return fail(Error, "cannot open '" + Path + "' for reading");
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return loadProfile(Buffer.str(), Out, Error);
}

//===- support/StringUtils.cpp --------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

using namespace impact;

std::vector<std::string_view> impact::splitString(std::string_view Text,
                                                  char Sep) {
  std::vector<std::string_view> Fields;
  size_t Begin = 0;
  while (true) {
    size_t End = Text.find(Sep, Begin);
    if (End == std::string_view::npos) {
      Fields.push_back(Text.substr(Begin));
      return Fields;
    }
    Fields.push_back(Text.substr(Begin, End - Begin));
    Begin = End + 1;
  }
}

std::string_view impact::trimString(std::string_view Text) {
  size_t Begin = 0, End = Text.size();
  while (Begin != End && std::isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End != Begin &&
         std::isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

bool impact::startsWith(std::string_view Text, std::string_view Prefix) {
  return Text.substr(0, Prefix.size()) == Prefix;
}

std::string impact::formatDouble(double Value, unsigned Digits) {
  // printf's non-finite spellings vary by platform ("nan" vs "-nan(...)");
  // pin them down so tables and golden traces render identically anywhere.
  if (std::isnan(Value))
    return "nan";
  if (std::isinf(Value))
    return Value < 0.0 ? "-inf" : "inf";
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", static_cast<int>(Digits),
                Value);
  return Buffer;
}

std::string impact::padLeft(std::string_view Text, unsigned Width) {
  std::string Result;
  if (Text.size() < Width)
    Result.assign(Width - Text.size(), ' ');
  Result.append(Text);
  return Result;
}

std::string impact::padRight(std::string_view Text, unsigned Width) {
  std::string Result(Text);
  if (Result.size() < Width)
    Result.append(Width - Result.size(), ' ');
  return Result;
}

namespace {

/// Levenshtein distance, two-row formulation.
size_t editDistance(std::string_view A, std::string_view B) {
  std::vector<size_t> Prev(B.size() + 1), Cur(B.size() + 1);
  for (size_t J = 0; J <= B.size(); ++J)
    Prev[J] = J;
  for (size_t I = 0; I != A.size(); ++I) {
    Cur[0] = I + 1;
    for (size_t J = 0; J != B.size(); ++J)
      Cur[J + 1] = std::min({Prev[J + 1] + 1, Cur[J] + 1,
                             Prev[J] + (A[I] == B[J] ? 0 : 1)});
    std::swap(Prev, Cur);
  }
  return Prev[B.size()];
}

} // namespace

std::string_view
impact::findClosestMatch(std::string_view Word,
                         const std::vector<std::string_view> &Candidates) {
  std::string_view Best;
  size_t BestDist = 0;
  for (std::string_view C : Candidates) {
    size_t D = editDistance(Word, C);
    if (Best.empty() || D < BestDist) {
      Best = C;
      BestDist = D;
    }
  }
  return BestDist <= std::max<size_t>(2, Word.size() / 3) ? Best
                                                          : std::string_view();
}

std::string impact::jsonEscape(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buffer[8];
        std::snprintf(Buffer, sizeof(Buffer), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buffer;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string impact::formatWithCommas(int64_t Value) {
  bool Negative = Value < 0;
  uint64_t Magnitude =
      Negative ? 0ull - static_cast<uint64_t>(Value) : static_cast<uint64_t>(Value);
  std::string Digits = std::to_string(Magnitude);
  std::string Result;
  unsigned Count = 0;
  for (auto It = Digits.rbegin(); It != Digits.rend(); ++It) {
    if (Count != 0 && Count % 3 == 0)
      Result.push_back(',');
    Result.push_back(*It);
    ++Count;
  }
  if (Negative)
    Result.push_back('-');
  return std::string(Result.rbegin(), Result.rend());
}

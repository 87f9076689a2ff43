//===- perfbench/src/Trace.cpp --------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cstdio>
#include <fstream>

using namespace perfbench;

std::string perfbench::getLayerName(const std::string &SpanName) {
  return SpanName.substr(0, SpanName.find('.'));
}

std::map<std::string, double> Tracer::selfTimeByName() const {
  std::map<std::string, double> Self;
  for (const Span &S : Spans) {
    Self[S.Name] += S.seconds();
    if (S.Parent >= 0)
      Self[Spans[S.Parent].Name] -= S.seconds();
  }
  return Self;
}

bool Tracer::writeChromeTrace(const std::string &Path,
                              std::string *Error) const {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out) {
    *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  Out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char Buf[128];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf), "\"ts\": %.3f, \"dur\": %.3f",
                  S.Start * 1e6, S.seconds() * 1e6);
    Out << (I ? ",\n" : "") << "{\"name\": \"" << S.Name
        << "\", \"cat\": \"" << getLayerName(S.Name)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " << Buf
        << ", \"args\": {\"span\": " << I << ", \"parent\": " << S.Parent
        << ", \"op\": " << S.Op;
    for (const auto &[Key, Value] : S.Args) {
      std::snprintf(Buf, sizeof(Buf), "%.9g", Value);
      Out << ", \"" << Key << "\": " << Buf;
    }
    Out << "}}";
  }
  Out << "\n]}\n";
  Out.close();
  if (!Out) {
    *Error = "write to '" + Path + "' failed";
    return false;
  }
  return true;
}

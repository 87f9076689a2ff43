//===- perfbench/src/Trace.h - In-memory spans around layer calls ---------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. The benchmark opens one span around each
/// call it makes into a layer's public entry point; spans nest by call
/// structure, and every span of one program experiment or edit carries
/// that op's id. Spans stay in memory and are written once, at the end of
/// the run, as Chrome trace-event JSON (viewable in Perfetto).
///
/// A span is named "<layer>.<entry point>[:<phase>]"; the layer is the text
/// before the first '.', and is the unit the self-time tables aggregate by.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_PERFBENCH_TRACE_H
#define IMPACT_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string Name;
  /// Seconds since the tracer was constructed.
  double Start = 0.0;
  double End = 0.0;
  /// Index of the enclosing span, -1 for an op's root span.
  int64_t Parent = -1;
  /// Shared by every span of one program experiment or edit.
  uint64_t Op = 0;
  /// Figures the callee reported about its own interval (the compile
  /// server's per-phase seconds), written into the trace's args.
  std::vector<std::pair<std::string, double>> Args;

  double seconds() const { return End - Start; }
};

class Tracer {
public:
  /// Closes its span on destruction.
  class Scope {
  public:
    Scope(Tracer &T, size_t Index) : T(T), Index(Index) {}
    ~Scope() { T.close(Index); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    Span &get() { return T.Spans[Index]; }

  private:
    Tracer &T;
    size_t Index;
  };

  Tracer() : Epoch(Clock::now()) {}

  /// Opens a span as a child of the innermost open span; with none open it
  /// is the root of op \p Op.
  [[nodiscard]] Scope span(std::string Name, uint64_t Op = 0) {
    Span S;
    S.Name = std::move(Name);
    if (!Open.empty()) {
      S.Parent = static_cast<int64_t>(Open.back());
      S.Op = Spans[Open.back()].Op;
    } else {
      S.Op = Op;
    }
    size_t Index = Spans.size();
    Open.push_back(Index);
    S.Start = now();
    Spans.push_back(std::move(S));
    return Scope(*this, Index);
  }

  const std::vector<Span> &getSpans() const { return Spans; }

  /// Self time per span name: each span's length minus the length of its
  /// direct children. The benchmark is serial, so children never overlap
  /// one another.
  std::map<std::string, double> selfTimeByName() const;

  /// Writes every span as Chrome trace-event JSON ("X" events, times in
  /// microseconds). False with \p Error on an I/O failure.
  bool writeChromeTrace(const std::string &Path, std::string *Error) const;

private:
  using Clock = std::chrono::steady_clock;

  double now() const {
    return std::chrono::duration<double>(Clock::now() - Epoch).count();
  }
  void close(size_t Index) {
    Spans[Index].End = now();
    Open.pop_back();
  }

  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<size_t> Open;
};

/// "profile.profileProgram:pre" -> "profile".
std::string getLayerName(const std::string &SpanName);

} // namespace perfbench

#endif // IMPACT_PERFBENCH_TRACE_H

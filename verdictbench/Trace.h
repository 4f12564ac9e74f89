//===- Trace.h - In-memory span recorder for the traced run ------*- C++ -*-===//
//
// Part of the Blazer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans are recorded from the benchmark's own files, around its calls into
/// each layer's public functions; nothing inside src/ is instrumented. The
/// recorder is single-threaded (the harness calls the layers from one
/// thread), keeps every span in memory, and writes them out only at the end.
///
//===----------------------------------------------------------------------===//

#ifndef VERDICTBENCH_TRACE_H
#define VERDICTBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace verdictbench {

class Tracer {
public:
  struct Span {
    const char *Name;
    int64_t StartNs;
    int64_t EndNs;
    int Parent; ///< Index of the enclosing span, -1 for a root.
    int Program;
  };

  Tracer() : Origin(std::chrono::steady_clock::now()) {}

  /// Opens a span nested in the innermost open one. \returns its index.
  int begin(const char *Name, int Program);
  void end(int Index);

  /// Sum of self time (duration minus the time covered by child spans) per
  /// span name, in milliseconds.
  std::map<std::string, double> selfMs() const;

  /// Writes the spans as Chrome trace-event JSON (loads in Perfetto or
  /// chrome://tracing). \returns false when the file cannot be written.
  bool writeChromeTrace(const std::string &Path) const;

private:
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - Origin)
        .count();
  }

  std::chrono::steady_clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// Records one span for the lifetime of the scope.
class SpanScope {
public:
  SpanScope(Tracer &T, const char *Name, int Program)
      : T(T), Index(T.begin(Name, Program)) {}
  ~SpanScope() { T.end(Index); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer &T;
  int Index;
};

} // namespace verdictbench

#endif // VERDICTBENCH_TRACE_H

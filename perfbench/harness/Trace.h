//===- perfbench/harness/Trace.h - In-memory span recorder ------*- C++ -*-===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark harness around each call into a layer's
/// public function. A span is named "<layer>.<function>" (the layer is the
/// src/ module: frontend, driver, core, ...), carries its start and end on
/// the steady clock, the span that caused it and the benchmark case it
/// belongs to. Spans stay in memory and are written once, at the end of a
/// run, as Chrome trace-event JSON that Perfetto opens.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t nowNs();

struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1; ///< index of the causing span, -1 for a root
  int32_t Case = -1;   ///< benchmark case id, -1 outside a case
  /// Durations known but start not observed (pass executions reported by
  /// CompileResult::Passes): laid out back to back inside the parent.
  bool Packed = false;
};

class Tracer {
public:
  bool enabled() const { return On; }
  void setEnabled(bool E) { On = E; }

  /// Opens a span under the innermost open one; returns its index.
  int32_t begin(std::string Name, int32_t Case);
  void end(int32_t Idx);

  /// Appends a closed span with the given bounds under \p Parent.
  int32_t add(std::string Name, int64_t StartNs, int64_t EndNs,
              int32_t Parent, int32_t Case, bool Packed);

  /// The innermost open span, or -1.
  int32_t current() const { return Stack.empty() ? -1 : Stack.back(); }
  const Span &span(int32_t Idx) const { return Spans[Idx]; }

  /// Writes every span as a Chrome trace-event "X" event (microsecond
  /// timestamps relative to the first span) with the span id, parent and
  /// case in its args. Returns false when the file cannot be written.
  bool writeChromeTrace(const std::string &Path) const;

private:
  bool On = false;
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
};

/// Scoped span; a no-op when the tracer is off.
class Scope {
public:
  Scope(Tracer &T, const char *Name, int32_t Case)
      : T(T), Idx(T.enabled() ? T.begin(Name, Case) : -1) {}
  ~Scope() {
    if (Idx >= 0)
      T.end(Idx);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  int32_t index() const { return Idx; }

private:
  Tracer &T;
  int32_t Idx;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H

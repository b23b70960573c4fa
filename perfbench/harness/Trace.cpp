//===- perfbench/harness/Trace.cpp - In-memory span recorder ---------------===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "support/JSON.h"
#include "support/raw_ostream.h"

#include <cassert>
#include <chrono>
#include <cinttypes>
#include <cstdio>

using namespace perfbench;

int64_t perfbench::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t Tracer::begin(std::string Name, int32_t Case) {
  int32_t Idx = add(std::move(Name), nowNs(), 0, current(), Case, false);
  Stack.push_back(Idx);
  return Idx;
}

void Tracer::end(int32_t Idx) {
  assert(!Stack.empty() && Stack.back() == Idx && "spans close in order");
  Spans[Idx].EndNs = nowNs();
  Stack.pop_back();
}

int32_t Tracer::add(std::string Name, int64_t StartNs, int64_t EndNs,
                    int32_t Parent, int32_t Case, bool Packed) {
  Spans.push_back({std::move(Name), StartNs, EndNs, Parent, Case, Packed});
  return (int32_t)Spans.size() - 1;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  {
    ompgpu::raw_fd_ostream OS(F);
    OS << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      char Buf[256];
      OS << (I ? ",\n" : "") << "{\"name\": ";
      ompgpu::json::writeEscaped(OS, S.Name);
      // Timestamps are microseconds; three decimals keep every nanosecond.
      std::snprintf(Buf, sizeof(Buf),
                    ", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"id\": %zu, \"parent\": %" PRId32 ", \"case\": %" PRId32
                    ", \"packed\": %s}}",
                    S.Packed ? "packed" : "span",
                    (double)(S.StartNs - Origin) / 1e3,
                    (double)(S.EndNs - S.StartNs) / 1e3, I, S.Parent, S.Case,
                    S.Packed ? "true" : "false");
      OS << Buf;
    }
    OS << "\n]}\n";
  }
  return std::fclose(F) == 0;
}

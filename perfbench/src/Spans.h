//===- perfbench/src/Spans.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the SpecSync project (CGO 2004 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around each call it makes into a layer of
/// the program: name, start, end and parent. Spans are kept in memory and
/// written out once, when the run ends. An untraced run passes a null
/// SpanLog, so its timed passes execute no recording code beyond a branch.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int Parent = -1;    ///< Index into SpanLog::spans(), -1 for a root.
  uint64_t Items = 0; ///< Work the call did (instructions, accesses, ...).
  int64_t durNs() const { return EndNs - StartNs; }
};

class SpanLog {
public:
  /// Opens a span under the innermost open one; returns its index.
  int open(std::string Name) {
    Span S;
    S.Name = std::move(Name);
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.StartNs = nowNs();
    Spans.push_back(std::move(S));
    Stack.push_back(static_cast<int>(Spans.size()) - 1);
    return Stack.back();
  }
  void close(int Idx) {
    Spans[Idx].EndNs = nowNs();
    Stack.pop_back();
  }
  void setItems(int Idx, uint64_t N) { Spans[Idx].Items = N; }
  const std::vector<Span> &spans() const { return Spans; }
  /// Chrome trace-event JSON ("X" events, one track); parents ride in args.
  bool writeJson(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// RAII span; a no-op when \p Log is null.
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, std::string Name) : Log(Log) {
    if (Log)
      Idx = Log->open(std::move(Name));
  }
  ~ScopedSpan() {
    if (Log)
      Log->close(Idx);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  void setItems(uint64_t N) {
    if (Log)
      Log->setItems(Idx, N);
  }

private:
  SpanLog *Log;
  int Idx = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H

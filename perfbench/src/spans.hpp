// Spans recorded by the benchmark around its calls into each layer.
//
// A span is one timed call: a name, its parent span (the call it was made
// from), and start/end on the steady clock plus the calling thread's CPU
// time (CLOCK_THREAD_CPUTIME_ID) over the same interval. Spans stay in
// memory and are written out once, when the run ends.
//
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover (overlapping children are counted once,
// and a child sticking out of its parent counts only inside it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock and thread-CPU time, in nanoseconds.
std::uint64_t wallNanos();
std::uint64_t threadCpuNanos();

struct Span {
  std::string name;
  int parent = -1; ///< Index of the enclosing span; -1 for a root.
  std::uint64_t startNanos = 0;
  std::uint64_t endNanos = 0;
  std::uint64_t cpuNanos = 0; ///< Thread CPU time spent inside the span.

  std::uint64_t durationNanos() const {
    return endNanos > startNanos ? endNanos - startNanos : 0;
  }
};

class SpanRecorder {
public:
  /// Open a span as a child of the innermost open span; returns its index.
  int open(std::string name);
  /// Close span `index` (must be the innermost open span).
  void close(int index);
  /// Append an already-measured span (tests, externally timed intervals).
  int add(Span span);

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration of span `index` minus its children's coverage of it.
  std::uint64_t selfNanos(int index) const;
  /// One JSON object per line: name, id, parent, start, duration, cpu, self.
  std::string jsonl() const;

private:
  struct Open {
    int index;
    std::uint64_t cpuStart;
  };
  std::vector<Span> spans_;
  std::vector<Open> stack_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder& recorder, std::string name)
      : recorder_(recorder), index_(recorder.open(std::move(name))) {}
  ~ScopedSpan() { recorder_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  SpanRecorder& recorder_;
  int index_;
};

} // namespace perfbench

#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <utility>

namespace perfbench {

std::uint64_t wallNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t threadCpuNanos() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

int SpanRecorder::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = stack_.empty() ? -1 : stack_.back().index;
  const std::uint64_t cpu = threadCpuNanos();
  span.startNanos = wallNanos();
  const int index = add(std::move(span));
  stack_.push_back({index, cpu});
  return index;
}

void SpanRecorder::close(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.endNanos = wallNanos();
  while (!stack_.empty()) {
    const Open top = stack_.back();
    stack_.pop_back();
    if (top.index == index) {
      span.cpuNanos = threadCpuNanos() - top.cpuStart;
      break;
    }
  }
}

int SpanRecorder::add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

std::uint64_t SpanRecorder::selfNanos(int index) const {
  const Span& span = spans_[static_cast<std::size_t>(index)];
  std::vector<std::pair<std::uint64_t, std::uint64_t>> children;
  for (const Span& child : spans_) {
    if (child.parent != index)
      continue;
    const std::uint64_t start = std::max(child.startNanos, span.startNanos);
    const std::uint64_t end = std::min(child.endNanos, span.endNanos);
    if (start < end)
      children.emplace_back(start, end);
  }
  std::sort(children.begin(), children.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = span.startNanos;
  for (const auto& [start, end] : children) {
    const std::uint64_t from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return span.durationNanos() - covered;
}

std::string SpanRecorder::jsonl() const {
  std::string out;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().startNanos;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out += "{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(span.parent) + ",\"name\":\"" +
           span.name + "\",\"startNs\":" +
           std::to_string(span.startNanos - origin) +
           ",\"durationNs\":" + std::to_string(span.durationNanos()) +
           ",\"cpuNs\":" + std::to_string(span.cpuNanos) +
           ",\"selfNs\":" + std::to_string(selfNanos(static_cast<int>(i))) +
           "}\n";
  }
  return out;
}

} // namespace perfbench

// Unit checks of the benchmark's own machinery: span self time, the
// exact-sample quantiles, and the response scanner. Exits non-zero on the
// first failed check.
//
//   .bench_build/perfbench_selftest
#include <cstdio>
#include <string>

#include "client.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

perfbench::Span span(const char* name, int parent, std::uint64_t start,
                     std::uint64_t end) {
  perfbench::Span s;
  s.name = name;
  s.parent = parent;
  s.startNanos = start;
  s.endNanos = end;
  return s;
}

void selfTimeIsDurationMinusChildCoverage() {
  perfbench::SpanRecorder r;
  const int root = r.add(span("root", -1, 100, 200));
  r.add(span("a", root, 110, 130));   // 20
  r.add(span("b", root, 120, 150));   // overlaps a: union adds 20
  r.add(span("c", root, 190, 260));   // clipped to the root: 10
  const int d = r.add(span("d", root, 160, 170)); // 10
  r.add(span("grandchild", d, 160, 170));        // not a direct child
  expect(r.selfNanos(root) == 100 - (40 + 10 + 10),
         "root self time = duration - union of child intervals");
  expect(r.selfNanos(d) == 0, "fully covered span has zero self time");
  expect(r.selfNanos(1) == 20, "leaf self time = its duration");
}

void recordedSpansNest() {
  perfbench::SpanRecorder r;
  {
    perfbench::ScopedSpan outer(r, "outer");
    perfbench::ScopedSpan inner(r, "inner");
  }
  expect(r.spans().size() == 2, "two spans recorded");
  expect(r.spans()[1].parent == 0, "inner span's parent is the outer one");
  expect(r.spans()[0].endNanos >= r.spans()[1].endNanos,
         "outer span closes last");
  expect(r.selfNanos(0) + r.spans()[1].durationNanos() ==
             r.spans()[0].durationNanos(),
         "outer self time + inner duration = outer duration");
}

void quantilesAreSamples() {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  expect(perfbench::median(v) == 3, "median of 1..5 is 3");
  expect(perfbench::quantile(v, 0.99) == 5, "p99 of five samples is the max");
  expect(perfbench::quantile({1, 2}, 0.5) == 1,
         "nearest-rank median of two samples is the lower one");
  expect(perfbench::quantile({}, 0.5) == 0, "empty sample gives 0");
}

void scannerReadsHeadAndLedger() {
  const std::string frame =
      R"({"schema":"cgpa.jobresult.v1","id":17,"ok":true,"cacheHit":true,)"
      R"("irHash":"00ff","remarks":{"count":1,"digest":"ab"},"cycles":99,)"
      R"("correct":true,"stats":{"cycles":1,"trace":{"x":1}},)"
      R"("trace":{"schema":"cgpa.jobtrace.v1","endToEndNanos":36,)"
      R"("phases":{"queueWait":1,"parse":2,"cacheLookup":3,"compile":4,)"
      R"("planBuild":5,"simulate":6,"verify":7,"serialize":8}}})";
  const perfbench::Response r = perfbench::scanResponse(frame);
  expect(r.parsed && r.ok && r.correct, "head fields parsed");
  expect(r.id == 17 && r.cycles == 99 && r.irHash == "00ff",
         "top-level cycles and irHash, not the stats document's");
  expect(r.traced && r.endToEndNanos == 36, "ledger parsed");
  expect(r.phaseNanos[0] == 1 && r.phaseNanos[5] == 6 && r.phaseNanos[7] == 8,
         "phases in JobPhase order");
  const perfbench::Response error = perfbench::scanResponse(
      R"({"schema":"cgpa.jobresult.v1","id":3,"ok":false,"error":{}})");
  expect(error.parsed && !error.ok && !error.traced, "error response");
}

} // namespace

int main() {
  selfTimeIsDurationMinusChildCoverage();
  recordedSpansNest();
  quantilesAreSamples();
  scannerReadsHeadAndLedger();
  if (failures == 0)
    std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

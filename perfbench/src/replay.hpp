// In-process replay of compile keys, one span per call into a layer.
//
// The replay walks the same public functions, in the same order, that
// cgpad runs for a job (driver::compileKernelChecked for a kernel key,
// the fuzz-spec path of serve::compileJobPlan for a spec key, then the
// per-job workload build, simulation, reference check and response
// serialization of the executor), so each layer's cost can be read off
// on its own. It reproduces cgpad's irHash and cycle count for every
// job, which the caller checks against a live cgpad (replay fidelity).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/job.hpp"
#include "spans.hpp"

namespace perfbench {

/// One compile key and the jobs simulated against it.
struct ReplayKey {
  cgpa::serve::JobRequest compile;
  std::vector<cgpa::serve::JobRequest> runs;
};

/// What the replay produced for one job (from the first repetition).
struct ReplayOutcome {
  cgpa::serve::JobRequest request;
  std::string irHash;
  std::uint64_t cycles = 0;
};

struct ReplayReport {
  SpanRecorder spans; ///< Roots: "cgpa.compile" per key, "replay.run" per job.
  std::vector<ReplayOutcome> outcomes;
  std::vector<std::string> errors; ///< Failed or non-repeating jobs.
  std::uint64_t irInsts = 0;       ///< Σ instructions after transform.
  std::uint64_t channels = 0;      ///< Σ pipeline channels.
  std::uint64_t cycles = 0;        ///< Σ simulated cycles (one repetition).
  std::uint64_t busyCycles = 0;    ///< Σ engine-cycles doing work.
  std::uint64_t engineCycles = 0;  ///< Σ engine-cycles of every cause.
};

/// Replay every key `repetitions` times.
ReplayReport replay(const std::vector<ReplayKey>& keys, int repetitions);

/// Per-layer timings from the spans, in microseconds: for each span name,
/// the median over root spans of that name's summed duration inside the
/// root ("<name>_us") and the same for thread CPU time ("<name>_cpu_us").
/// Root spans contribute their own duration and self time
/// ("<root>_self_us").
std::map<std::string, double> layerMicros(const SpanRecorder& spans);

} // namespace perfbench

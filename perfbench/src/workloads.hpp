// The benchmark's three workloads, generated from the run seed.
//
//   sweep-warm    closed loop, 4 clients: the 5 paper kernels x flow
//                 {p1, legup} x scale {1, 2, 4} x seed {42, 7, 1234}
//                 (90 jobs, 10 compile keys), sent in shuffled passes.
//                 Set-up compiles every key, so each timed job hits the
//                 plan cache and the worker's simulator cache.
//   compile-cold  closed loop, 4 clients: every job a fresh fuzz spec
//                 (fuzz::specFromSeed -> serializeSpec) with flow
//                 {p1, p2, legup} x workers {1, 2, 4}. The spec pool is
//                 far larger than the 32-entry plan cache, so it never hits.
//   mixed-open    open loop, seeded Poisson arrivals at a fixed rate: 85%
//                 warm scale-1 kernel jobs, 15% fresh cold specs (3 of
//                 every 20 arrivals).
//
// A workload is a pool of distinct jobs plus index streams into it (the
// set-up stream and the timed stream). Every pool job carries the result
// an in-process serve::runJobDirect gave for it, computed before any
// timing; the client checks each response against it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/job.hpp"

namespace perfbench {

/// What the in-process reference run returned for a job.
struct Expectation {
  std::uint64_t cycles = 0;
  std::string irHash;
};

struct PoolJob {
  cgpa::serve::JobRequest request; ///< id left null; set per send.
  std::string body;       ///< cgpa.job.v1 frame minus its leading '{'.
  std::string tracedBody; ///< Same with trace:true.
  Expectation expect;
  /// Wall time of the in-process run; sizes the client's stall watchdog.
  std::uint64_t directNanos = 0;
  bool cold = false; ///< A fuzz-spec job (compiles on every send).
};

struct Workload {
  std::string name;
  bool openLoop = false;
  std::vector<PoolJob> pool;
  std::vector<std::size_t> setup;  ///< Pool indices sent during set-up.
  std::vector<std::size_t> stream; ///< Pool indices of the timed stream.
  /// Open loop only: send time of stream[i], seconds from window start.
  std::vector<double> arrivals;
  std::size_t droppedSpecs = 0; ///< Cold specs that failed in-process.
};

struct WorkloadOptions {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10.0;    ///< Length of the open-loop schedule.
  double rate = 0.0;        ///< Open-loop arrivals/s; 0 runs it closed.
  std::size_t coldPool = 0; ///< Distinct timed cold specs (0 = default).
  int threads = 4;          ///< Threads for the in-process reference runs.
};

bool isWorkloadName(const std::string& name);

/// Generate the workload: build the pool, run every pool job through
/// serve::runJobDirect for its expectation, then lay out the streams.
/// Deterministic in the options. A cold spec that fails or is not correct
/// in-process is left out of the streams (counted in droppedSpecs); a
/// kernel job that does is a program bug and throws std::runtime_error.
/// Throws std::invalid_argument for an unknown workload name.
Workload makeWorkload(const WorkloadOptions& options);

/// The frame for pool job `job` sent with numeric id `id`.
std::string frameFor(const PoolJob& job, std::uint64_t id, bool traced);

} // namespace perfbench

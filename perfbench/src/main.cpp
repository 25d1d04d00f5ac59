// perfbench — the repository benchmark: load generator and layer replay
// (run through run.py).
//
//   perfbench --workload sweep-warm|compile-cold|mixed-open --seed N
//             --seconds S --trace 0|1 --cgpad PATH
//             [--rate R] [--limit-ms L] [--spans-out FILE]
//             [--cold-pool N] [--dump-stream N]
//
// It generates the workload from the seed, records each job's expected
// result with an in-process serve::runJobDirect, starts cgpad (three
// times; set-up is timed each time and the median reported), and drives
// it over loopback TCP from 4 connections.
//
//   --trace 0  one untraced window of S seconds -> end-to-end metrics
//   --trace 1  an untraced and a traced window of S/2 seconds each, the
//              serverstats cache counters, and the in-process per-layer
//              replay of every compile key -> per-layer metrics
//
// Every response is checked (ok, correct, cycles and irHash equal to the
// in-process run). The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the lines before it name
// the host and give the full report.
//
// Exit codes: 0 ok; 1 a check failed (result printed with correct=false);
// 2 usage; 3 invalid run (client-bound or not a Release build; nothing
// reported); 4 cgpad could not be started or driven.
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "client.hpp"
#include "kernels/kernel.hpp"
#include "replay.hpp"
#include "serve/job_trace.hpp"
#include "stats.hpp"
#include "trace/json.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kConnections = 4;
constexpr int kCgpadWorkers = 4;
constexpr int kSetupRepeats = 3;
constexpr int kReplayRepetitions = 3;
constexpr std::size_t kReplaySpecs = 16;
/// Validity guards: the client may use at most this share of the CPU the
/// client and cgpad use together, and the generator may send at most this
/// late (p99) before the run is declared client-bound. On a 4-core host
/// shared with a busy cgpad the sender typically runs 3-6 ms late at p99;
/// that lag is part of every measured latency (jobs are timed from their
/// due time), so the guard only catches a generator that fell behind.
constexpr double kMaxClientCpuShare = 0.25;
constexpr double kMaxGenLagP99Ms = 15.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string cgpad;
  double rate = 0.0;
  double limitMs = 50.0;
  std::string spansOut;
  std::size_t coldPool = 0;
  std::size_t dumpStream = 0;
};

int usage(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  return 2;
}

std::optional<Options> parseArgs(int argc, char** argv, std::string& error) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return std::nullopt;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload")
        options.workload = value;
      else if (flag == "--seed")
        options.seed = std::stoull(value);
      else if (flag == "--seconds")
        options.seconds = std::stod(value);
      else if (flag == "--trace")
        options.trace = std::stoi(value);
      else if (flag == "--cgpad")
        options.cgpad = value;
      else if (flag == "--rate")
        options.rate = std::stod(value);
      else if (flag == "--limit-ms")
        options.limitMs = std::stod(value);
      else if (flag == "--spans-out")
        options.spansOut = value;
      else if (flag == "--cold-pool")
        options.coldPool = std::stoull(value);
      else if (flag == "--dump-stream")
        options.dumpStream = std::stoull(value);
      else {
        error = "unknown flag " + flag;
        return std::nullopt;
      }
    } catch (const std::exception&) {
      error = "bad value for " + flag + ": " + value;
      return std::nullopt;
    }
  }
  if (!isWorkloadName(options.workload))
    error = "--workload must be sweep-warm, compile-cold or mixed-open";
  else if (options.trace != 0 && options.trace != 1)
    error = "--trace must be 0 or 1";
  else if (!(options.seconds > 0.0))
    error = "--seconds must be positive";
  else if (options.cgpad.empty() && options.dumpStream == 0)
    error = "--cgpad is required";
  if (!error.empty())
    return std::nullopt;
  return options;
}

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

/// Named metrics in print order, each with its unit.
class Metrics {
public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (const Entry& e : entries_) {
      if (out.size() > 1)
        out += ", ";
      out += "\"" + e.name + "\": {\"value\": " + number(e.value) +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string hostJson() {
  std::string model = "unknown";
  const std::string cpuinfo = readFile("/proc/cpuinfo");
  if (const std::size_t at = cpuinfo.find("model name");
      at != std::string::npos) {
    const std::size_t colon = cpuinfo.find(':', at);
    const std::size_t end = cpuinfo.find('\n', at);
    if (colon != std::string::npos && colon < end)
      model = cpuinfo.substr(colon + 2, end - colon - 2);
  }
  std::istringstream loadavg(readFile("/proc/loadavg"));
  std::string one, five, fifteen;
  loadavg >> one >> five >> fifteen;
  const std::string load = one + " " + five + " " + fifteen;
  return "{\"cpu\": \"" + cgpa::trace::jsonEscape(model) +
         "\", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"loadavg\": \"" + load + "\", \"build_type\": \"" +
         PERFBENCH_BUILD_TYPE + "\"}";
}

/// One cgpad with its connections. The load generator goes first on
/// destruction.
struct Session {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<LoadGenerator> load;

  bool close() {
    load.reset();
    return daemon->shutdown(30.0);
  }
};

std::optional<Session> startSession(const Options& options,
                                    const Workload& workload,
                                    std::string& error) {
  Session session;
  session.daemon = Daemon::spawn(options.cgpad, kCgpadWorkers, error);
  if (!session.daemon)
    return std::nullopt;
  std::vector<std::unique_ptr<Connection>> connections;
  for (int c = 0; c < kConnections; ++c) {
    std::unique_ptr<Connection> conn =
        Connection::open(session.daemon->port(), error);
    if (!conn)
      return std::nullopt;
    connections.push_back(std::move(conn));
  }
  session.load = std::make_unique<LoadGenerator>(
      workload, *session.daemon, std::move(connections));
  return session;
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> mismatches;

  void add(const Window& window) {
    attempted += window.samples.size();
    for (const Sample& sample : window.samples)
      failed += sample.good ? 0 : 1;
    mismatches.insert(mismatches.end(), window.mismatches.begin(),
                      window.mismatches.end());
  }
};

std::vector<double> collect(const Window& window,
                            const std::function<double(const Sample&)>& f) {
  std::vector<double> out;
  for (const Sample& sample : window.samples)
    if (sample.good)
      out.push_back(f(sample));
  return out;
}

std::size_t goodCount(const Window& window) {
  std::size_t n = 0;
  for (const Sample& sample : window.samples)
    n += sample.good ? 1 : 0;
  return n;
}

double jobsPerSecond(const Window& window) {
  return window.seconds > 0.0
             ? static_cast<double>(goodCount(window)) / window.seconds
             : 0.0;
}

double genLagP99Us(const Window& window) {
  return quantile(collect(window,
                          [](const Sample& s) {
                            return static_cast<double>(s.sent - s.due) / 1e3;
                          }),
                  0.99);
}

double clientCpuShare(const Window& window) {
  const double total = window.clientCpuSeconds + window.serverCpuSeconds;
  return total > 0.0 ? window.clientCpuSeconds / total : 0.0;
}

/// Empty when the window was driven by cgpad's capacity, not the client's.
std::string invalidReason(const Window& window) {
  if (clientCpuShare(window) > kMaxClientCpuShare)
    return "client used " + number(clientCpuShare(window)) +
           " of the CPU (limit " + number(kMaxClientCpuShare) + ")";
  if (genLagP99Us(window) / 1e3 > kMaxGenLagP99Ms)
    return "generator lag p99 " + number(genLagP99Us(window) / 1e3) +
           " ms (limit " + number(kMaxGenLagP99Ms) + " ms)";
  return "";
}

/// Per-slice rates of a window's full slices (see kSliceNanos).
struct Slices {
  std::vector<double> jobsPerSecond;
  std::vector<double> cyclesPerSecond;
  std::vector<double> serverCpuMsPerJob;
};

Slices slicesOf(const Window& window) {
  Slices out;
  if (window.serverCpuAtSlice.size() < 2)
    return out;
  const std::size_t n = window.serverCpuAtSlice.size() - 1;
  std::vector<double> good(n, 0.0);
  std::vector<double> cycles(n, 0.0);
  for (const Sample& sample : window.samples) {
    if (!sample.good || sample.done < window.start)
      continue;
    const std::size_t k = (sample.done - window.start) / kSliceNanos;
    if (k < n) {
      good[k] += 1.0;
      cycles[k] += static_cast<double>(sample.cycles);
    }
  }
  const double sliceSeconds = static_cast<double>(kSliceNanos) / 1e9;
  for (std::size_t k = 0; k < n; ++k) {
    out.jobsPerSecond.push_back(good[k] / sliceSeconds);
    out.cyclesPerSecond.push_back(cycles[k] / sliceSeconds);
    if (good[k] > 0)
      out.serverCpuMsPerJob.push_back(
          (window.serverCpuAtSlice[k + 1] - window.serverCpuAtSlice[k]) *
          1e3 / good[k]);
  }
  return out;
}

void endToEnd(const Window& window, double limitMs, double peakRssMb,
              const std::vector<double>& setupSeconds, Metrics& metrics) {
  const std::vector<double> latency =
      collect(window, [](const Sample& s) { return s.latencyMs(); });
  std::size_t within = 0;
  double cycles = 0.0;
  for (const Sample& sample : window.samples)
    if (sample.good) {
      within += sample.latencyMs() <= limitMs ? 1 : 0;
      cycles += static_cast<double>(sample.cycles);
    }
  const double attempted = static_cast<double>(window.samples.size());
  // Rates are the median one-second slice; a window shorter than one
  // slice falls back to whole-window figures.
  const Slices slices = slicesOf(window);
  const bool sliced = !slices.serverCpuMsPerJob.empty();
  metrics.add("jobs_per_s",
              sliced ? median(slices.jobsPerSecond) : jobsPerSecond(window),
              "jobs/s");
  metrics.add("job_p50_ms", quantile(latency, 0.50), "ms");
  metrics.add("job_p99_ms", quantile(latency, 0.99), "ms");
  metrics.add("within_limit_ratio",
              attempted > 0 ? static_cast<double>(within) / attempted : 0.0,
              "ratio");
  metrics.add("sim_cycles_per_s",
              sliced ? median(slices.cyclesPerSecond)
                     : (window.seconds > 0 ? cycles / window.seconds : 0.0),
              "cycles/s");
  metrics.add("server_cpu_ms_per_job",
              sliced ? median(slices.serverCpuMsPerJob)
                     : (attempted > 0
                            ? window.serverCpuSeconds * 1e3 / attempted
                            : 0.0),
              "ms");
  metrics.add("peak_rss_mb", peakRssMb, "MB");
  metrics.add("setup_s", median(setupSeconds), "s");
}

std::uint64_t cacheCounter(const std::string& statsFrame, const char* key) {
  const std::optional<cgpa::trace::JsonValue> doc =
      cgpa::trace::parseJson(statsFrame);
  const cgpa::trace::JsonValue* stats =
      doc ? doc->find("serverStats") : nullptr;
  const cgpa::trace::JsonValue* cache =
      stats != nullptr ? stats->find("cache") : nullptr;
  const cgpa::trace::JsonValue* value =
      cache != nullptr ? cache->find(key) : nullptr;
  return value != nullptr ? value->asUint() : 0;
}

/// Every kernel key (p1, legup, p2 where supported), each with the
/// workload's jobs for it (or the default scale-1 job), plus a sample of
/// fuzz specs from the workload's cold stream — or, for a workload with
/// none, from compile-cold's stream for the same seed.
std::vector<ReplayKey> replayKeys(const Workload& workload,
                                  const Options& options) {
  std::vector<ReplayKey> keys;
  for (const cgpa::kernels::Kernel* kernel : cgpa::kernels::allKernels()) {
    std::vector<const char*> flows = {"p1", "legup"};
    if (kernel->supportsP2())
      flows.push_back("p2");
    for (const char* flow : flows) {
      ReplayKey key;
      key.compile.kernel = kernel->name();
      key.compile.flow = flow;
      for (const PoolJob& job : workload.pool)
        if (!job.cold && job.request.compileKey() == key.compile.compileKey())
          key.runs.push_back(job.request);
      if (key.runs.empty())
        key.runs.push_back(key.compile);
      keys.push_back(std::move(key));
    }
  }
  auto addSpecs = [&keys](const Workload& source) {
    std::set<std::size_t> seen;
    for (const std::size_t index : source.stream) {
      if (seen.size() == kReplaySpecs)
        break;
      if (!source.pool[index].cold || !seen.insert(index).second)
        continue;
      ReplayKey key;
      key.compile = source.pool[index].request;
      key.runs.push_back(key.compile);
      keys.push_back(std::move(key));
    }
  };
  bool hasCold = false;
  for (const std::size_t index : workload.stream)
    hasCold = hasCold || workload.pool[index].cold;
  if (hasCold) {
    addSpecs(workload);
  } else {
    WorkloadOptions cold;
    cold.name = "compile-cold";
    cold.seed = options.seed;
    cold.coldPool = kReplaySpecs;
    addSpecs(makeWorkload(cold));
  }
  return keys;
}

/// Send every replayed job to the live cgpad and check that it returns
/// the replay's irHash and cycles.
Window checkFidelity(const ReplayReport& report, Daemon& daemon,
                     std::string& error) {
  Workload fidelity;
  fidelity.name = "replay-fidelity";
  for (const ReplayOutcome& outcome : report.outcomes) {
    PoolJob job;
    job.request = outcome.request;
    job.body = cgpa::serve::jobToJson(outcome.request).dump(0).substr(1);
    job.expect = {outcome.cycles, outcome.irHash};
    fidelity.setup.push_back(fidelity.pool.size());
    fidelity.pool.push_back(std::move(job));
  }
  std::unique_ptr<Connection> conn = Connection::open(daemon.port(), error);
  if (!conn)
    return {};
  std::vector<std::unique_ptr<Connection>> connections;
  connections.push_back(std::move(conn));
  LoadGenerator load(fidelity, daemon, std::move(connections));
  return load.runList(fidelity.setup);
}

void perLayer(const Window& untraced, const Window& traced,
              const std::string& statsBefore, const std::string& statsAfter,
              std::size_t tracedNudges, const ReplayReport& report,
              Metrics& metrics) {
  using cgpa::serve::JobPhase;
  auto phaseUs = [&traced](JobPhase phase) {
    return collect(traced, [phase](const Sample& s) {
      return static_cast<double>(s.phaseNanos[static_cast<std::size_t>(
                 phase)]) /
             1e3;
    });
  };
  metrics.add("serve.queue_wait_us.p50",
              quantile(phaseUs(JobPhase::QueueWait), 0.50), "us");
  metrics.add("serve.queue_wait_us.p99",
              quantile(phaseUs(JobPhase::QueueWait), 0.99), "us");
  metrics.add("serve.parse_us.p50", median(phaseUs(JobPhase::Parse)), "us");
  metrics.add("serve.cache_lookup_us.p50",
              median(phaseUs(JobPhase::CacheLookup)), "us");
  metrics.add("serve.plan_build_us.p50",
              median(phaseUs(JobPhase::PlanBuild)), "us");
  metrics.add("sim.simulate_us.p50", median(phaseUs(JobPhase::Simulate)),
              "us");
  metrics.add("serve.verify_us.p50", median(phaseUs(JobPhase::Verify)), "us");
  metrics.add("serve.serialize_us.p50",
              median(phaseUs(JobPhase::Serialize)), "us");
  metrics.add("serve.response_bytes.mean",
              mean(collect(untraced,
                           [](const Sample& s) {
                             return static_cast<double>(s.bytes);
                           })),
              "bytes");
  metrics.add("serve.client_gap_us.p50",
              median(collect(traced,
                             [](const Sample& s) {
                               return (static_cast<double>(s.done - s.sent) -
                                       static_cast<double>(s.endToEndNanos)) /
                                      1e3;
                             })),
              "us");

  // The ledger's split of cgpad's time: queue wait as a share of Σ
  // endToEndNanos, and each service phase as a share of the rest (the
  // time a worker or the connection thread spent on the job).
  double total = 0.0;
  std::array<double, cgpa::serve::kJobPhaseCount> phases{};
  for (const Sample& sample : traced.samples)
    if (sample.good) {
      total += static_cast<double>(sample.endToEndNanos);
      for (std::size_t p = 0; p < phases.size(); ++p)
        phases[p] += static_cast<double>(sample.phaseNanos[p]);
    }
  const double queued =
      phases[static_cast<std::size_t>(JobPhase::QueueWait)];
  metrics.add("serve.queue_share", total > 0 ? queued / total : 0.0,
              "ratio");
  for (std::size_t p = 0; p < phases.size(); ++p)
    if (static_cast<JobPhase>(p) != JobPhase::QueueWait)
      metrics.add(std::string("serve.phase_share.") +
                      cgpa::serve::toString(static_cast<JobPhase>(p)),
                  total > queued ? phases[p] / (total - queued) : 0.0,
                  "ratio");

  const double lookups =
      static_cast<double>(cacheCounter(statsAfter, "lookups") -
                          cacheCounter(statsBefore, "lookups") -
                          tracedNudges);
  const double hits = static_cast<double>(cacheCounter(statsAfter, "hits") -
                                          cacheCounter(statsBefore, "hits"));
  metrics.add("serve.plan_cache.hit_ratio",
              lookups > 0 ? hits / lookups : 0.0, "ratio");
  metrics.add("serve.plan_cache.evictions",
              static_cast<double>(cacheCounter(statsAfter, "evictions") -
                                  cacheCounter(statsBefore, "evictions")),
              "count");
  metrics.add("serve.cpu_util",
              traced.seconds > 0
                  ? traced.serverCpuSeconds /
                        (traced.seconds *
                         static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)))
                  : 0.0,
              "ratio");

  const std::map<std::string, double> layers =
      layerMicros(report.spans);
  auto layer = [&layers](const std::string& key) {
    const auto it = layers.find(key);
    return it != layers.end() ? it->second : 0.0;
  };
  static constexpr const char* kLayers[] = {
      "opt.scalar",         "ir.verify",          "ir.print_hash",
      "analysis.profile",   "analysis.cfg",       "analysis.alias",
      "analysis.pdg",       "analysis.scc",       "pipeline.partition",
      "pipeline.transform", "hls.schedule",       "sim.build",
      "kernels.workload_build", "kernels.reference", "interp.reference",
      "verify.compare",     "trace.stats_doc",    "trace.json_dump"};
  metrics.add("cgpa.compile_us.p50", layer("cgpa.compile_us"), "us");
  metrics.add("cgpa.compile_cpu_us.p50", layer("cgpa.compile_cpu_us"), "us");
  metrics.add("cgpa.compile_self_us", layer("cgpa.compile_self_us"), "us");
  for (const char* name : kLayers) {
    metrics.add(std::string(name) + "_us", layer(std::string(name) + "_us"),
                "us");
    metrics.add(std::string(name) + "_cpu_us",
                layer(std::string(name) + "_cpu_us"), "us");
  }

  double runWall = 0.0;
  double runCpu = 0.0;
  for (const Span& span : report.spans.spans())
    if (span.name == "sim.run") {
      runWall += static_cast<double>(span.durationNanos());
      runCpu += static_cast<double>(span.cpuNanos);
    }
  const double cyclesRun =
      static_cast<double>(report.cycles) * kReplayRepetitions;
  metrics.add("sim.run_ns_per_cycle", cyclesRun > 0 ? runWall / cyclesRun : 0,
              "ns/cycle");
  metrics.add("sim.run_cpu_ns_per_cycle",
              cyclesRun > 0 ? runCpu / cyclesRun : 0, "ns/cycle");
  metrics.add("pipeline.ir_insts", static_cast<double>(report.irInsts),
              "count");
  metrics.add("pipeline.channels", static_cast<double>(report.channels),
              "count");
  metrics.add("sim.cycles_total", static_cast<double>(report.cycles),
              "count");
  metrics.add("sim.busy_ratio",
              report.engineCycles > 0
                  ? static_cast<double>(report.busyCycles) /
                        static_cast<double>(report.engineCycles)
                  : 0.0,
              "ratio");

  const double untracedRate = jobsPerSecond(untraced);
  metrics.add("bench.trace_overhead_ratio",
              untracedRate > 0 ? jobsPerSecond(traced) / untracedRate : 0.0,
              "ratio");
  metrics.add("bench.gen_lag_us.p99", genLagP99Us(untraced), "us");
  metrics.add("bench.client_cpu_share", clientCpuShare(untraced), "ratio");
}

int dumpStream(const Workload& workload, std::size_t count) {
  for (const std::size_t index : workload.setup)
    std::printf("setup %s\n", frameFor(workload.pool[index], 0, false).c_str());
  for (std::size_t k = 0; k < count && k < workload.stream.size(); ++k) {
    const std::string at =
        workload.openLoop ? number(workload.arrivals[k]) + " " : "";
    std::printf("%s%s\n", at.c_str(),
                frameFor(workload.pool[workload.stream[k]], k, false).c_str());
  }
  return 0;
}

int run(const Options& options) {
  const double window =
      options.trace == 1 ? options.seconds / 2 : options.seconds;
  WorkloadOptions workloadOptions;
  workloadOptions.name = options.workload;
  workloadOptions.seed = options.seed;
  workloadOptions.seconds = window;
  workloadOptions.rate = options.workload == "mixed-open" ? options.rate : 0;
  workloadOptions.coldPool = options.coldPool;
  workloadOptions.threads =
      static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  const Workload workload = makeWorkload(workloadOptions);
  if (options.dumpStream != 0)
    return dumpStream(workload, options.dumpStream);
  std::printf("{\"host\": %s, \"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d}\n",
              hostJson().c_str(), options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.trace);
  std::fflush(stdout);
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: invalid run: build type %s, not "
                         "Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  // Set-up, timed from spawning cgpad through the end of warm-up; the
  // last session is the one measured.
  Tally tally;
  std::vector<double> setupSeconds;
  std::optional<Session> session;
  std::string error;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (session && !session->close()) {
      std::fprintf(stderr, "perfbench: cgpad did not shut down cleanly\n");
      return 4;
    }
    const std::uint64_t start = wallNanos();
    session = startSession(options, workload, error);
    if (!session) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 4;
    }
    tally.add(session->load->runList(workload.setup));
    setupSeconds.push_back(static_cast<double>(wallNanos() - start) / 1e9);
  }

  auto measure = [&](bool traced) {
    Window w = workload.openLoop ? session->load->runOpen(traced)
                                 : session->load->runClosed(window, traced);
    tally.add(w);
    return w;
  };
  Metrics metrics;
  Window measured; ///< The untraced window: guards and report figures.
  std::vector<std::string> replayErrors;
  if (options.trace == 0) {
    measured = measure(false);
    endToEnd(measured, options.limitMs, session->daemon->peakRssMb(),
             setupSeconds, metrics);
  } else {
    measured = measure(false);
    const std::string statsBefore =
        session->load->serverStats().value_or("");
    const std::size_t nudgesBefore = session->load->nudges();
    const Window traced = measure(true);
    // Each nudge is one plan-cache lookup (a miss) that no real job made.
    const std::size_t tracedNudges =
        session->load->nudges() - nudgesBefore;
    const std::string statsAfter =
        session->load->serverStats().value_or("");
    const ReplayReport report =
        replay(replayKeys(workload, options), kReplayRepetitions);
    replayErrors = report.errors;
    const Window fidelity = checkFidelity(report, *session->daemon, error);
    if (fidelity.samples.size() != report.outcomes.size())
      replayErrors.push_back("replay fidelity check could not run: " + error);
    tally.add(fidelity);
    perLayer(measured, traced, statsBefore, statsAfter, tracedNudges, report,
             metrics);
    if (!options.spansOut.empty())
      std::ofstream(options.spansOut) << report.spans.jsonl();
  }
  const std::size_t nudges = session->load->nudges();
  const bool clean = session->close();

  if (const std::string invalid = invalidReason(measured); !invalid.empty()) {
    std::fprintf(stderr, "perfbench: invalid run: %s\n", invalid.c_str());
    return 3;
  }
  for (const std::string& text : tally.mismatches)
    std::fprintf(stderr, "perfbench: mismatch: %s\n", text.c_str());
  for (const std::string& text : replayErrors)
    std::fprintf(stderr, "perfbench: replay: %s\n", text.c_str());
  if (!clean)
    std::fprintf(stderr, "perfbench: cgpad did not shut down cleanly\n");
  const bool correct = tally.failed == 0 && replayErrors.empty() && clean;
  std::printf("{\"report\": {\"failed_ratio\": %s, \"dropped_specs\": %zu, "
              "\"nudges\": %zu, \"client_cpu_share\": %s, "
              "\"gen_lag_p99_us\": %s, \"window_s\": %s, "
              "\"window_jobs_per_s\": %s, \"window_server_cpu_ms_per_job\": "
              "%s}}\n",
              number(tally.attempted > 0
                         ? static_cast<double>(tally.failed) /
                               static_cast<double>(tally.attempted)
                         : 0.0)
                  .c_str(),
              workload.droppedSpecs, nudges,
              number(clientCpuShare(measured)).c_str(),
              number(genLagP99Us(measured)).c_str(),
              number(measured.seconds).c_str(),
              number(jobsPerSecond(measured)).c_str(),
              number(measured.samples.empty()
                         ? 0.0
                         : measured.serverCpuSeconds * 1e3 /
                               static_cast<double>(measured.samples.size()))
                  .c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", tally.attempted,
              tally.failed + replayErrors.size(), metrics.json().c_str());
  return correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  std::string error;
  const std::optional<Options> options = parseArgs(argc, argv, error);
  if (!options)
    return usage(error);
  try {
    return run(*options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
}

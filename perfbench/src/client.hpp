// The benchmark's view of a running cgpad: the child process, loopback
// TCP connections to it, the response scanner, and the closed- and
// open-loop generators that time every job from the client's side.
#pragma once

#include <sys/types.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// A cgpad child process listening on an ephemeral loopback port.
class Daemon {
public:
  /// Spawn `cgpad --port 0 --workers <workers>` and wait for its
  /// "listening on" line. Returns null (with `error` set) on failure.
  static std::unique_ptr<Daemon> spawn(const std::string& path, int workers,
                                       std::string& error);
  /// Kills the process if it is still running and reaps it.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  /// utime + stime so far, from /proc/<pid>/stat.
  double cpuSeconds() const;
  /// VmHWM (peak resident set) from /proc/<pid>/status, in MiB.
  double peakRssMb() const;
  /// Ask for an orderly shutdown (op=shutdown) and reap the process;
  /// kills it after `timeoutSeconds`. False if it had to be killed or
  /// exited non-zero.
  bool shutdown(double timeoutSeconds);

private:
  Daemon(pid_t pid, int stdoutFd) : pid_(pid), stdoutFd_(stdoutFd) {}
  bool reap(double timeoutSeconds);

  pid_t pid_;
  int stdoutFd_;
  int port_ = 0;
  bool reaped_ = false;
};

/// One loopback TCP connection speaking newline-delimited frames. Sends
/// are serialized, so a watchdog may send on a connection another thread
/// also sends on; reads belong to one thread.
class Connection {
public:
  enum class Read { Frame, Timeout, Closed };

  static std::unique_ptr<Connection> open(int port, std::string& error);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send(const std::string& frame);
  /// Wait for the next frame until the steady-clock `deadline` (ns).
  Read read(std::string& frame, std::uint64_t deadline);

private:
  explicit Connection(int fd) : fd_(fd) {}

  int fd_;
  std::mutex sendMutex_;
  std::string buffer_; ///< Bytes received but not yet returned.
};

/// The fields of a cgpa.jobresult.v1 response the benchmark checks.
struct Response {
  bool parsed = false;
  std::optional<std::uint64_t> id; ///< Numeric ids only.
  bool ok = false;
  bool correct = false;
  std::uint64_t cycles = 0;
  std::string irHash;
  /// From the embedded cgpa.jobtrace.v1 ledger, when the job was traced.
  bool traced = false;
  std::array<std::uint64_t, 8> phaseNanos{}; ///< serve::JobPhase order.
  std::uint64_t endToEndNanos = 0;
};

/// Parse the top-level fields (everything before the embedded stats
/// document) and, when present, the trailing trace ledger.
Response scanResponse(const std::string& frame);

/// One sent job, as the client saw it.
struct Sample {
  std::size_t pool = 0;    ///< Workload pool index.
  std::uint64_t due = 0;   ///< When it should have been sent (steady ns).
  std::uint64_t sent = 0;
  std::uint64_t done = 0;  ///< Response received; 0 if none.
  bool good = false;       ///< ok, correct, and matches the expectation.
  std::uint64_t cycles = 0;
  std::size_t bytes = 0;   ///< Response frame size.
  std::array<std::uint64_t, 8> phaseNanos{}; ///< Traced jobs only.
  std::uint64_t endToEndNanos = 0;

  double latencyMs() const { return static_cast<double>(done - due) / 1e6; }
};

/// Timed windows are also cut into slices of this length, so rates can be
/// reported as the median slice: a burst of host noise then moves one
/// slice, not the whole figure.
inline constexpr std::uint64_t kSliceNanos = 1'000'000'000ULL;

/// Jobs each closed-loop client keeps outstanding. With one, a job whose
/// queue wake-up cgpad loses (it can go to the thread parked waiting for
/// shutdown instead of a worker) sits until another client sends; in a
/// loop of 4 clients that can stall them all at once. With a second job
/// queued behind each running one, a worker that finishes always finds
/// the next job without needing a wake-up.
inline constexpr std::size_t kInFlightPerClient = 2;

struct Window {
  std::vector<Sample> samples;
  std::uint64_t start = 0;      ///< Steady-clock ns.
  double seconds = 0.0;         ///< Window start to the last response.
  double serverCpuSeconds = 0.0;
  double clientCpuSeconds = 0.0;
  /// cgpad CPU seconds at start + k * kSliceNanos, k = 0, 1, ... up to
  /// the end of the sending period.
  std::vector<double> serverCpuAtSlice;
  std::vector<std::string> mismatches; ///< First few failures, described.
};

/// Drives one cgpad over a fixed set of connections. Ids are unique over
/// the generator's life; the closed-loop stream position carries across
/// windows.
class LoadGenerator {
public:
  LoadGenerator(const Workload& workload, Daemon& daemon,
                std::vector<std::unique_ptr<Connection>> connections)
      : workload_(workload), daemon_(daemon),
        connections_(std::move(connections)) {}

  /// Send `order` (pool indices) once through, as the closed loop does.
  /// Used for set-up; every job is still checked.
  Window runList(const std::vector<std::size_t>& order);
  /// Closed loop: kInFlightPerClient jobs in flight per connection until
  /// `seconds` pass.
  Window runClosed(double seconds, bool traced);
  /// Open loop: the workload's arrival schedule, round-robin over the
  /// connections, each job timed from its scheduled send time.
  Window runOpen(bool traced);
  /// An op=stats round trip; the cgpa.serverstats.v1 document as text.
  std::optional<std::string> serverStats();
  /// Watchdog frames sent so far (see awaitResponse).
  std::size_t nudges() const { return nudges_; }

private:
  /// The response to the job in flight on `conn`. cgpad can leave a
  /// queued job unclaimed until the next job arrives (its queue wake-up
  /// may go to a thread that is not a worker), so when a response is
  /// overdue by `patience` the client sends a nudge: a job naming no
  /// kernel, which a worker rejects at once. Nudge replies are skipped.
  std::optional<std::string> awaitResponse(Connection& conn,
                                           std::uint64_t patience);
  Window closedLoop(const std::vector<std::size_t>* order, double seconds,
                    bool traced);
  /// Record cgpad's CPU time at each slice boundary of a window starting
  /// at `start` until `sendingEnds` (steady ns); joins when done.
  void sampleSlices(std::uint64_t start, std::uint64_t sendingEnds,
                    std::vector<double>& out);
  void check(Sample& sample, std::size_t pool, const std::string& frame,
             const Response& response, Window& window);

  const Workload& workload_;
  Daemon& daemon_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::uint64_t nextId_ = 0;
  std::size_t streamPos_ = 0;
  std::atomic<std::size_t> nudges_{0};
};

/// This process's user + system CPU time, all threads.
double processCpuSeconds();

} // namespace perfbench

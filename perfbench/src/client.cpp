#include "client.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "serve/framing.hpp"
#include "serve/job_trace.hpp"
#include "spans.hpp"
#include "trace/json.hpp"

extern char** environ;

namespace perfbench {

namespace {

constexpr std::uint64_t kSecond = 1'000'000'000ULL;
/// How long any one response may take before the job counts as lost.
constexpr std::uint64_t kResponseTimeout = 60 * kSecond;
constexpr std::size_t kMaxMismatches = 5;
/// Stall watchdog (LoadGenerator::awaitResponse): nudge once a response is
/// later than this many times the job's in-process run time, and never
/// sooner than kMinPatience.
constexpr std::uint64_t kPatienceFactor = 4;
constexpr std::uint64_t kMinPatience = 20'000'000;
constexpr const char* kNudgeFrame =
    "{\"schema\":\"cgpa.job.v1\",\"id\":\"nudge\",\"kernel\":\"-\"}";

bool isNudgeReply(const std::string& frame) {
  static const std::string prefix =
      "{\"schema\":\"cgpa.jobresult.v1\",\"id\":\"nudge\"";
  return frame.compare(0, prefix.size(), prefix) == 0;
}

int remainingMillis(std::uint64_t deadline) {
  if (deadline == 0)
    return -1;
  const std::uint64_t now = wallNanos();
  if (now >= deadline)
    return 0;
  return static_cast<int>(std::min<std::uint64_t>(
      (deadline - now) / 1'000'000 + 1, 1u << 30));
}

void sleepUntil(std::uint64_t deadline) {
  const std::uint64_t now = wallNanos();
  if (now < deadline)
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline - now));
}

} // namespace

double processCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// --- Daemon -------------------------------------------------------------

std::unique_ptr<Daemon> Daemon::spawn(const std::string& path, int workers,
                                      std::string& error) {
  int pipeFds[2];
  if (::pipe2(pipeFds, O_CLOEXEC) != 0) {
    error = "pipe failed";
    return nullptr;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipeFds[1], STDOUT_FILENO);
  const std::string workerArg = std::to_string(workers);
  const char* argv[] = {path.c_str(), "--port",          "0",
                        "--workers",  workerArg.c_str(), nullptr};
  pid_t pid = 0;
  const int rc = ::posix_spawn(&pid, path.c_str(), &actions, nullptr,
                               const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipeFds[1]);
  if (rc != 0) {
    ::close(pipeFds[0]);
    error = "cannot start " + path;
    return nullptr;
  }
  std::unique_ptr<Daemon> daemon(new Daemon(pid, pipeFds[0]));

  // cgpad prints "cgpad: listening on 127.0.0.1:<port>" once bound.
  const std::uint64_t deadline = wallNanos() + 30 * kSecond;
  std::string output;
  const std::string marker = "listening on 127.0.0.1:";
  while (true) {
    const std::size_t at = output.find(marker);
    if (at != std::string::npos &&
        output.find('\n', at) != std::string::npos) {
      daemon->port_ = std::atoi(output.c_str() + at + marker.size());
      return daemon;
    }
    pollfd pfd{daemon->stdoutFd_, POLLIN, 0};
    if (::poll(&pfd, 1, remainingMillis(deadline)) <= 0) {
      error = "cgpad did not report its port";
      return nullptr;
    }
    char buffer[256];
    const ssize_t n = ::read(daemon->stdoutFd_, buffer, sizeof(buffer));
    if (n <= 0) {
      error = "cgpad exited before listening";
      return nullptr;
    }
    output.append(buffer, static_cast<std::size_t>(n));
  }
}

Daemon::~Daemon() {
  if (!reaped_) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  ::close(stdoutFd_);
}

double Daemon::cpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3,
  // utime 14 and stime 15.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos)
    return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; index <= 15 && (fields >> field); ++index)
    if (index >= 14)
      ticks += std::stod(field);
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

bool Daemon::shutdown(double timeoutSeconds) {
  std::string error;
  if (std::unique_ptr<Connection> conn = Connection::open(port_, error)) {
    std::string ack;
    if (conn->send("{\"schema\":\"cgpa.job.v1\",\"id\":\"shutdown\","
                   "\"op\":\"shutdown\"}"))
      (void)conn->read(ack, wallNanos() + static_cast<std::uint64_t>(
                                              timeoutSeconds * 1e9));
  }
  return reap(timeoutSeconds);
}

bool Daemon::reap(double timeoutSeconds) {
  const std::uint64_t deadline =
      wallNanos() + static_cast<std::uint64_t>(timeoutSeconds * 1e9);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (wallNanos() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      reaped_ = true;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  reaped_ = true;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// --- Connection ---------------------------------------------------------

std::unique_ptr<Connection> Connection::open(int port, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    error = "socket failed";
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    error = "connect to 127.0.0.1:" + std::to_string(port) + " failed";
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Connection>(new Connection(fd));
}

Connection::~Connection() { ::close(fd_); }

bool Connection::send(const std::string& frame) {
  std::lock_guard lock(sendMutex_);
  return cgpa::serve::writeFrame(fd_, frame).ok();
}

Connection::Read Connection::read(std::string& frame,
                                  std::uint64_t deadline) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      frame.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return Read::Frame;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, remainingMillis(deadline));
    if (ready == 0)
      return Read::Timeout;
    if (ready < 0) {
      if (errno == EINTR)
        continue;
      return Read::Closed;
    }
    char chunk[1 << 16];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR)
      continue;
    if (n <= 0)
      return Read::Closed;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

// --- Responses ----------------------------------------------------------

Response scanResponse(const std::string& frame) {
  using cgpa::trace::JsonValue;
  Response response;
  // jobresult members come in a fixed order with the bulky stats document
  // after every field checked here, so only the head is parsed.
  const std::size_t stats = frame.find(",\"stats\":");
  const std::optional<JsonValue> head = cgpa::trace::parseJson(
      stats == std::string::npos ? frame : frame.substr(0, stats) + "}");
  if (!head || !head->isObject())
    return response;
  response.parsed = true;
  auto field = [&head](const char* key) -> const JsonValue* {
    return head->find(key);
  };
  if (const JsonValue* id = field("id"); id != nullptr && id->isNumber())
    response.id = id->asUint();
  if (const JsonValue* ok = field("ok"))
    response.ok = ok->asBool();
  if (const JsonValue* correct = field("correct"))
    response.correct = correct->asBool();
  if (const JsonValue* cycles = field("cycles"))
    response.cycles = cycles->asUint();
  if (const JsonValue* irHash = field("irHash"))
    response.irHash = irHash->asString();

  const std::string traceKey = ",\"trace\":{\"schema\":\"cgpa.jobtrace.v1\"";
  const std::size_t at = frame.rfind(traceKey);
  if (at == std::string::npos || frame.back() != '}')
    return response;
  const std::size_t begin = at + 9; // past ,"trace":
  const std::optional<JsonValue> ledger =
      cgpa::trace::parseJson(frame.substr(begin, frame.size() - 1 - begin));
  const JsonValue* phases = ledger ? ledger->find("phases") : nullptr;
  const JsonValue* total = ledger ? ledger->find("endToEndNanos") : nullptr;
  if (phases == nullptr || total == nullptr)
    return response;
  response.traced = true;
  response.endToEndNanos = total->asUint();
  for (std::size_t p = 0; p < cgpa::serve::kJobPhaseCount; ++p)
    if (const JsonValue* v = phases->find(
            cgpa::serve::toString(static_cast<cgpa::serve::JobPhase>(p))))
      response.phaseNanos[p] = v->asUint();
  return response;
}

// --- LoadGenerator ---------------------------------------------------------

void LoadGenerator::check(Sample& sample, std::size_t pool,
                       const std::string& frame, const Response& response,
                       Window& window) {
  const PoolJob& job = workload_.pool[pool];
  sample.bytes = frame.size();
  sample.cycles = response.cycles;
  sample.phaseNanos = response.phaseNanos;
  sample.endToEndNanos = response.endToEndNanos;
  sample.good = response.parsed && response.ok && response.correct &&
                response.cycles == job.expect.cycles &&
                response.irHash == job.expect.irHash;
  if (!sample.good && window.mismatches.size() < kMaxMismatches)
    window.mismatches.push_back(
        "job {" + job.body + " expected cycles " +
        std::to_string(job.expect.cycles) + " irHash " + job.expect.irHash +
        ", got: " + frame.substr(0, 400));
}

Window LoadGenerator::runList(const std::vector<std::size_t>& order) {
  return closedLoop(&order, 0.0, /*traced=*/false);
}

Window LoadGenerator::runClosed(double seconds, bool traced) {
  return closedLoop(nullptr, seconds, traced);
}

std::optional<std::string> LoadGenerator::awaitResponse(Connection& conn,
                                                     std::uint64_t patience) {
  const std::uint64_t giveUp = wallNanos() + kResponseTimeout;
  std::uint64_t nudgeAt = patience == 0 ? giveUp : wallNanos() + patience;
  std::string frame;
  for (;;) {
    switch (conn.read(frame, std::min(nudgeAt, giveUp))) {
    case Connection::Read::Frame:
      if (!isNudgeReply(frame))
        return frame;
      break;
    case Connection::Read::Closed:
      return std::nullopt;
    case Connection::Read::Timeout:
      if (wallNanos() >= giveUp || !conn.send(kNudgeFrame))
        return std::nullopt;
      ++nudges_;
      nudgeAt = wallNanos() + patience;
      break;
    }
  }
}

Window LoadGenerator::closedLoop(const std::vector<std::size_t>* order,
                              double seconds, bool traced) {
  const std::size_t clients = connections_.size();
  std::vector<Window> perClient(clients);
  std::atomic<std::size_t> cursor{0};
  const std::uint64_t idBase = nextId_;
  const double clientCpu0 = processCpuSeconds();
  const double serverCpu0 = daemon_.cpuSeconds();
  const std::uint64_t start = wallNanos();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);

  // Each client keeps kInFlightPerClient jobs outstanding and sends the
  // next one when a response frees a slot (the job is due from then).
  auto client = [&](std::size_t c) {
    Connection& conn = *connections_[c];
    Window& window = perClient[c];
    std::map<std::uint64_t, Sample> inFlight;
    auto sendNext = [&](std::uint64_t due) {
      if (order == nullptr && wallNanos() >= deadline)
        return;
      const std::size_t k = cursor++;
      if (order != nullptr && k >= order->size())
        return;
      Sample sample;
      sample.pool =
          order != nullptr
              ? (*order)[k]
              : workload_.stream[(streamPos_ + k) % workload_.stream.size()];
      sample.due = due;
      sample.sent = wallNanos();
      if (conn.send(frameFor(workload_.pool[sample.pool], idBase + k,
                             traced)))
        inFlight.emplace(idBase + k, sample);
      else
        window.samples.push_back(sample); // Never answered: a failure.
    };
    for (std::size_t i = 0; i < kInFlightPerClient; ++i)
      sendNext(start);
    while (!inFlight.empty()) {
      std::uint64_t slowest = 0;
      for (const auto& [id, sample] : inFlight)
        slowest = std::max(slowest, workload_.pool[sample.pool].directNanos);
      const std::optional<std::string> frame = awaitResponse(
          conn, std::max(kMinPatience,
                         kPatienceFactor * kInFlightPerClient * slowest));
      if (!frame) {
        for (const auto& [id, sample] : inFlight) {
          if (window.mismatches.size() < kMaxMismatches)
            window.mismatches.push_back("no response to job " +
                                        std::to_string(id));
          window.samples.push_back(sample);
        }
        break;
      }
      const std::uint64_t now = wallNanos();
      const Response response = scanResponse(*frame);
      const auto it =
          response.id ? inFlight.find(*response.id) : inFlight.end();
      if (it == inFlight.end()) {
        if (window.mismatches.size() < kMaxMismatches)
          window.mismatches.push_back("unexpected response: " +
                                      frame->substr(0, 200));
        continue;
      }
      Sample sample = it->second;
      inFlight.erase(it);
      sample.done = now;
      check(sample, sample.pool, *frame, response, window);
      window.samples.push_back(sample);
      sendNext(now);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < clients; ++c)
    threads.emplace_back(client, c);
  Window merged;
  merged.start = start;
  std::thread sampler;
  if (order == nullptr)
    sampler = std::thread([&] {
      sampleSlices(start, deadline, merged.serverCpuAtSlice);
    });
  client(0);
  for (std::thread& thread : threads)
    thread.join();
  if (sampler.joinable())
    sampler.join();

  std::uint64_t last = start;
  for (Window& window : perClient) {
    for (const Sample& sample : window.samples)
      last = std::max(last, sample.done);
    merged.samples.insert(merged.samples.end(), window.samples.begin(),
                          window.samples.end());
    for (std::string& text : window.mismatches)
      if (merged.mismatches.size() < kMaxMismatches)
        merged.mismatches.push_back(std::move(text));
  }
  const std::size_t used = order != nullptr
                               ? std::min(cursor.load(), order->size())
                               : cursor.load();
  nextId_ += used;
  if (order == nullptr)
    streamPos_ += used;
  merged.seconds = static_cast<double>(last - start) / 1e9;
  merged.clientCpuSeconds = processCpuSeconds() - clientCpu0;
  merged.serverCpuSeconds = daemon_.cpuSeconds() - serverCpu0;
  return merged;
}

Window LoadGenerator::runOpen(bool traced) {
  const std::size_t clients = connections_.size();
  const std::size_t count = workload_.stream.size();
  const std::uint64_t idBase = nextId_;
  nextId_ += count;
  std::vector<Sample> samples(count);
  std::vector<Window> perReader(clients);
  std::atomic<bool> allSent{false};
  const double clientCpu0 = processCpuSeconds();
  const double serverCpu0 = daemon_.cpuSeconds();
  // A short lead so every reader is parked before the first arrival.
  const std::uint64_t start = wallNanos() + 5'000'000;
  const double span = count == 0 ? 0.0 : workload_.arrivals.back();
  const std::uint64_t giveUp =
      start + static_cast<std::uint64_t>(span * 1e9) + kResponseTimeout;

  // Readers write done/good/cycles/bytes/ledger of their samples and the
  // sender writes pool/due/sent: disjoint fields, read only after join.
  // While arrivals continue they wake cgpad's queue; after the last one a
  // reader nudges its connection when a response is overdue.
  auto reader = [&](std::size_t c) {
    Connection& conn = *connections_[c];
    std::size_t expected = count / clients + (c < count % clients ? 1 : 0);
    std::string frame;
    while (expected > 0 && wallNanos() < giveUp) {
      const Connection::Read got =
          conn.read(frame, std::min(giveUp, wallNanos() + kMinPatience));
      if (got == Connection::Read::Closed)
        break;
      if (got == Connection::Read::Timeout) {
        if (allSent.load() && conn.send(kNudgeFrame))
          ++nudges_;
        continue;
      }
      const std::uint64_t now = wallNanos();
      const Response head = scanResponse(frame);
      if (!head.id || *head.id < idBase || *head.id >= idBase + count ||
          (*head.id - idBase) % clients != c)
        continue;
      const std::size_t k = *head.id - idBase;
      Sample& sample = samples[k];
      if (sample.done != 0)
        continue;
      sample.done = now;
      check(sample, workload_.stream[k], frame, head, perReader[c]);
      --expected;
    }
  };
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < clients; ++c)
    readers.emplace_back(reader, c);
  Window merged;
  merged.start = start;
  std::thread sampler([&] {
    sampleSlices(start, start + static_cast<std::uint64_t>(span * 1e9),
                 merged.serverCpuAtSlice);
  });

  for (std::size_t k = 0; k < count; ++k) {
    Sample& sample = samples[k];
    sample.pool = workload_.stream[k];
    sample.due =
        start + static_cast<std::uint64_t>(workload_.arrivals[k] * 1e9);
    const std::string frame =
        frameFor(workload_.pool[sample.pool], idBase + k, traced);
    sleepUntil(sample.due);
    sample.sent = wallNanos();
    if (!connections_[k % clients]->send(frame))
      break;
  }
  allSent = true;
  for (std::thread& thread : readers)
    thread.join();
  sampler.join();

  std::uint64_t last = start;
  for (std::size_t k = 0; k < count; ++k) {
    Sample& sample = samples[k];
    last = std::max(last, sample.done);
    if (sample.done == 0 && merged.mismatches.size() < kMaxMismatches)
      merged.mismatches.push_back("no response to job " +
                                  std::to_string(idBase + k));
  }
  for (Window& window : perReader)
    for (std::string& text : window.mismatches)
      if (merged.mismatches.size() < kMaxMismatches)
        merged.mismatches.push_back(std::move(text));
  merged.samples = std::move(samples);
  merged.seconds = static_cast<double>(last - start) / 1e9;
  merged.clientCpuSeconds = processCpuSeconds() - clientCpu0;
  merged.serverCpuSeconds = daemon_.cpuSeconds() - serverCpu0;
  return merged;
}

void LoadGenerator::sampleSlices(std::uint64_t start, std::uint64_t sendingEnds,
                              std::vector<double>& out) {
  for (std::uint64_t at = start; at <= sendingEnds; at += kSliceNanos) {
    sleepUntil(at);
    out.push_back(daemon_.cpuSeconds());
  }
}

std::optional<std::string> LoadGenerator::serverStats() {
  Connection& conn = *connections_.front();
  if (!conn.send("{\"schema\":\"cgpa.job.v1\",\"id\":\"stats\","
                 "\"op\":\"stats\"}"))
    return std::nullopt;
  return awaitResponse(conn, /*patience=*/0);
}

} // namespace perfbench

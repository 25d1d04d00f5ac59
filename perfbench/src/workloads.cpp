#include "workloads.hpp"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "fuzz/corpus.hpp"
#include "fuzz/loopgen.hpp"
#include "kernels/kernel.hpp"
#include "serve/executor.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using cgpa::serve::JobRequest;

/// SplitMix64: the benchmark's own generator, so a change to the repo's
/// RNG cannot silently change the job streams.
class SplitMix {
public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(unit() * static_cast<double>(n));
  }

private:
  std::uint64_t state_;
};

/// Draws items of a set in shuffled passes: every pass visits each item
/// once, so any stretch of the stream has the set's own mix of job costs
/// and the seed only changes the order.
class ShuffledPasses {
public:
  ShuffledPasses(std::vector<std::size_t> items, SplitMix& rng)
      : items_(std::move(items)), rng_(rng), pos_(items_.size()) {}
  std::size_t next() {
    if (pos_ == items_.size()) {
      for (std::size_t i = items_.size(); i > 1; --i)
        std::swap(items_[i - 1], items_[rng_.below(i)]);
      pos_ = 0;
    }
    return items_[pos_++];
  }

private:
  std::vector<std::size_t> items_;
  SplitMix& rng_;
  std::size_t pos_;
};

std::vector<std::size_t> range(std::size_t first, std::size_t count) {
  std::vector<std::size_t> out(count);
  for (std::size_t i = 0; i < count; ++i)
    out[i] = first + i;
  return out;
}

constexpr std::size_t kSweepStream = 1u << 16;
constexpr int kSetupPasses = 3;
constexpr std::size_t kColdSetupSpecs = 1024;
constexpr std::size_t kMixedSetupSpecs = 32;
constexpr std::size_t kDefaultColdPool = 16384;
constexpr std::size_t kDefaultMixedColdPool = 1024;
/// mixed-open: 3 of every 20 jobs (15%) are cold specs.
constexpr std::size_t kMixedBlock = 20;
constexpr std::size_t kMixedColdPerBlock = 3;

void setBodies(PoolJob& job) {
  JobRequest request = job.request;
  request.trace = false;
  job.body = cgpa::serve::jobToJson(request).dump(0).substr(1);
  request.trace = true;
  job.tracedBody = cgpa::serve::jobToJson(request).dump(0).substr(1);
}

PoolJob kernelJob(const std::string& kernel, const char* flow, int scale,
                  std::uint64_t seed) {
  PoolJob job;
  job.request.kernel = kernel;
  job.request.flow = flow;
  job.request.scale = scale;
  job.request.seed = seed;
  setBodies(job);
  return job;
}

PoolJob coldJob(std::uint64_t specSeed, SplitMix& rng) {
  static constexpr const char* kFlows[] = {"p1", "p2", "legup"};
  static constexpr int kWorkers[] = {1, 2, 4};
  PoolJob job;
  job.cold = true;
  job.request.spec =
      cgpa::fuzz::serializeSpec(cgpa::fuzz::specFromSeed(specSeed));
  job.request.flow = kFlows[rng.below(3)];
  job.request.workers = kWorkers[rng.below(3)];
  setBodies(job);
  return job;
}

/// The warm kernel jobs: every paper kernel x {p1, legup} x the scales
/// and seeds given.
void addKernelJobs(Workload& workload, const std::vector<int>& scales) {
  static constexpr std::uint64_t kSeeds[] = {42, 7, 1234};
  for (const cgpa::kernels::Kernel* kernel : cgpa::kernels::allKernels())
    for (const char* flow : {"p1", "legup"})
      for (const int scale : scales)
        for (const std::uint64_t seed : kSeeds)
          workload.pool.push_back(kernelJob(kernel->name(), flow, scale, seed));
}

/// Append `count` cold specs; returns the pool index of the first.
std::size_t addColdJobs(Workload& workload, std::size_t count,
                        std::uint64_t& specSeed, SplitMix& rng) {
  const std::size_t first = workload.pool.size();
  for (std::size_t i = 0; i < count; ++i)
    workload.pool.push_back(coldJob(specSeed++, rng));
  return first;
}

/// serve::runJobDirect over the whole pool; 0 marks a job that failed
/// or was not correct.
std::vector<char> runExpectations(Workload& workload, int threads) {
  std::vector<char> good(workload.pool.size(), 0);
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next++; i < workload.pool.size(); i = next++) {
      PoolJob& job = workload.pool[i];
      const std::uint64_t start = wallNanos();
      cgpa::Expected<cgpa::trace::JsonValue> result =
          cgpa::serve::runJobDirect(job.request);
      job.directNanos = wallNanos() - start;
      if (!result.ok())
        continue;
      const cgpa::trace::JsonValue* ok = result->find("ok");
      const cgpa::trace::JsonValue* correct = result->find("correct");
      const cgpa::trace::JsonValue* cycles = result->find("cycles");
      const cgpa::trace::JsonValue* irHash = result->find("irHash");
      if (ok == nullptr || !ok->asBool() || correct == nullptr ||
          !correct->asBool() || cycles == nullptr || irHash == nullptr)
        continue;
      job.expect.cycles = cycles->asUint();
      job.expect.irHash = irHash->asString();
      good[i] = 1;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t)
    pool.emplace_back(work);
  work();
  for (std::thread& thread : pool)
    thread.join();
  return good;
}

/// Pool indices in [first, first+count) that passed in-process.
std::vector<std::size_t> survivors(const std::vector<char>& good,
                                   std::size_t first, std::size_t count) {
  std::vector<std::size_t> out;
  for (std::size_t i = first; i < first + count; ++i)
    if (good[i])
      out.push_back(i);
  return out;
}

} // namespace

bool isWorkloadName(const std::string& name) {
  return name == "sweep-warm" || name == "compile-cold" ||
         name == "mixed-open";
}

Workload makeWorkload(const WorkloadOptions& options) {
  if (!isWorkloadName(options.name))
    throw std::invalid_argument("unknown workload '" + options.name + "'");
  Workload workload;
  workload.name = options.name;
  // Decorrelate the sub-streams: neighbouring run seeds must not share
  // spec seeds or draw sequences.
  SplitMix seeder(options.seed);
  SplitMix rng(seeder.next());
  std::uint64_t specSeed = seeder.next();

  if (options.name == "sweep-warm") {
    addKernelJobs(workload, {1, 2, 4});
    const std::vector<char> good = runExpectations(workload, options.threads);
    for (std::size_t i = 0; i < good.size(); ++i)
      if (!good[i])
        throw std::runtime_error("kernel job failed in-process: " +
                                 workload.pool[i].body);
    for (int pass = 0; pass < kSetupPasses; ++pass)
      for (std::size_t i = 0; i < workload.pool.size(); ++i)
        workload.setup.push_back(i);
    ShuffledPasses jobs(range(0, workload.pool.size()), rng);
    for (std::size_t k = 0; k < kSweepStream; ++k)
      workload.stream.push_back(jobs.next());
    return workload;
  }

  if (options.name == "compile-cold") {
    const std::size_t timed =
        options.coldPool != 0 ? options.coldPool : kDefaultColdPool;
    const std::size_t setupFirst =
        addColdJobs(workload, kColdSetupSpecs, specSeed, rng);
    const std::size_t timedFirst = addColdJobs(workload, timed, specSeed, rng);
    const std::vector<char> good = runExpectations(workload, options.threads);
    workload.setup = survivors(good, setupFirst, kColdSetupSpecs);
    workload.stream = survivors(good, timedFirst, timed);
    workload.droppedSpecs = workload.pool.size() - workload.setup.size() -
                            workload.stream.size();
    if (workload.stream.empty())
      throw std::runtime_error("no cold spec passed in-process");
    return workload;
  }

  // mixed-open: warm scale-1 kernel jobs beside fresh cold specs.
  addKernelJobs(workload, {1});
  const std::size_t warmCount = workload.pool.size();
  const std::size_t coldCount =
      options.coldPool != 0 ? options.coldPool : kDefaultMixedColdPool;
  const std::size_t setupFirst =
      addColdJobs(workload, kMixedSetupSpecs, specSeed, rng);
  const std::size_t timedFirst =
      addColdJobs(workload, coldCount, specSeed, rng);
  const std::vector<char> good = runExpectations(workload, options.threads);
  for (std::size_t i = 0; i < warmCount; ++i)
    if (!good[i])
      throw std::runtime_error("kernel job failed in-process: " +
                               workload.pool[i].body);
  for (int pass = 0; pass < kSetupPasses; ++pass)
    for (std::size_t i = 0; i < warmCount; ++i)
      workload.setup.push_back(i);
  const std::vector<std::size_t> setupCold =
      survivors(good, setupFirst, kMixedSetupSpecs);
  workload.setup.insert(workload.setup.end(), setupCold.begin(),
                        setupCold.end());
  const std::vector<std::size_t> cold = survivors(good, timedFirst, coldCount);
  workload.droppedSpecs =
      kMixedSetupSpecs + coldCount - setupCold.size() - cold.size();
  if (cold.empty())
    throw std::runtime_error("no cold spec passed in-process");

  std::size_t nextCold = 0;
  ShuffledPasses warm(range(0, warmCount), rng);
  ShuffledPasses slots(range(0, kMixedBlock), rng);
  auto draw = [&] {
    if (slots.next() >= kMixedColdPerBlock)
      return warm.next();
    return cold[nextCold++ % cold.size()];
  };
  if (options.rate <= 0.0) {
    // Closed-loop calibration of the same mix (--rate 0).
    for (std::size_t k = 0; k < kSweepStream; ++k)
      workload.stream.push_back(draw());
    return workload;
  }
  workload.openLoop = true;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.unit()) / options.rate;
    if (t >= options.seconds)
      break;
    workload.arrivals.push_back(t);
    workload.stream.push_back(draw());
  }
  return workload;
}

std::string frameFor(const PoolJob& job, std::uint64_t id, bool traced) {
  return "{\"id\":" + std::to_string(id) + "," +
         (traced ? job.tracedBody : job.body);
}

} // namespace perfbench

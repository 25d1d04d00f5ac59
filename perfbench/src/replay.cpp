#include "replay.hpp"

#include <memory>
#include <optional>

#include "analysis/alias.hpp"
#include "analysis/control_dep.hpp"
#include "analysis/dominators.hpp"
#include "analysis/loops.hpp"
#include "analysis/pdg.hpp"
#include "analysis/profile.hpp"
#include "analysis/scc.hpp"
#include "cgpa/driver.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/loopgen.hpp"
#include "hls/area.hpp"
#include "hls/ops.hpp"
#include "hls/schedule.hpp"
#include "interp/interpreter.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "opt/passes.hpp"
#include "pipeline/partition.hpp"
#include "pipeline/transform.hpp"
#include "stats.hpp"
#include "trace/metrics.hpp"
#include "trace/remarks_json.hpp"
#include "trace/run_record.hpp"

namespace perfbench {

namespace {

using namespace cgpa;
using serve::JobRequest;

/// Everything one compile owns, declared so that destruction runs from the
/// pipeline back to the module the analyses point into.
struct Plan {
  std::unique_ptr<ir::Module> module;
  ir::Function* fn = nullptr;
  std::unique_ptr<analysis::DominatorTree> dom;
  std::unique_ptr<analysis::DominatorTree> postDom;
  std::unique_ptr<analysis::LoopInfo> loops;
  std::unique_ptr<analysis::AliasAnalysis> alias;
  std::unique_ptr<analysis::ControlDependence> controlDeps;
  std::unique_ptr<analysis::Pdg> pdg;
  std::unique_ptr<analysis::SccGraph> sccs;
  pipeline::PipelinePlan plan;
  pipeline::PipelineModule pipeline;
  trace::RemarkCollector remarks;
  std::string irHash;
};

Status fail(const std::string& message) {
  return Status::error(ErrorCode::InvalidArgument, message);
}

/// dom, post-dom and loops; alias; control dependence — in the order the
/// compile paths build them.
void buildAnalyses(Plan& p, SpanRecorder& spans) {
  {
    ScopedSpan span(spans, "analysis.cfg");
    p.dom = std::make_unique<analysis::DominatorTree>(*p.fn);
    p.postDom = std::make_unique<analysis::DominatorTree>(*p.fn, true);
    p.loops = std::make_unique<analysis::LoopInfo>(*p.fn, *p.dom);
  }
  {
    ScopedSpan span(spans, "analysis.alias");
    p.alias =
        std::make_unique<analysis::AliasAnalysis>(*p.fn, *p.module, *p.loops);
  }
  ScopedSpan span(spans, "analysis.cfg");
  p.controlDeps =
      std::make_unique<analysis::ControlDependence>(*p.fn, *p.postDom);
}

Status verify(const Plan& p, SpanRecorder& spans) {
  ScopedSpan span(spans, "ir.verify");
  return ir::verifyModuleStatus(*p.module);
}

/// driver::compileKernelChecked, one span per layer call.
Status compileKernel(const kernels::Kernel& kernel, driver::Flow flow,
                     int workers, Plan& p, SpanRecorder& spans) {
  driver::CompileOptions compile;
  compile.partition.numWorkers = workers;
  {
    ScopedSpan span(spans, "kernels.build_module");
    p.module = kernel.buildModule();
    p.fn = p.module->findFunction("kernel");
  }
  if (p.fn == nullptr)
    return fail("kernel module lacks @kernel");
  if (Status status = verify(p, spans); !status.ok())
    return status;
  {
    ScopedSpan span(spans, "opt.scalar");
    opt::runScalarOptimizations(*p.module);
  }
  if (Status status = verify(p, spans); !status.ok())
    return status;

  std::optional<kernels::Workload> training;
  {
    ScopedSpan span(spans, "kernels.training_workload");
    training = kernel.buildWorkload(compile.profileWorkload);
  }
  std::optional<analysis::ProfileData> profile;
  {
    ScopedSpan span(spans, "analysis.profile");
    profile = analysis::profileFunction(*p.fn, training->args,
                                        *training->memory);
  }
  buildAnalyses(p, spans);

  ir::BasicBlock* header = p.fn->findBlock(kernel.targetLoopHeader());
  analysis::Loop* loop =
      header != nullptr ? p.loops->loopWithHeader(header) : nullptr;
  if (loop == nullptr)
    return fail("target loop not found");
  {
    ScopedSpan span(spans, "analysis.pdg");
    p.pdg = std::make_unique<analysis::Pdg>(*p.fn, *loop, *p.alias,
                                            *p.controlDeps, &p.remarks);
  }
  {
    ScopedSpan span(spans, "analysis.scc");
    p.sccs = std::make_unique<analysis::SccGraph>(
        *p.pdg,
        [&profile](const ir::Instruction* inst) {
          const auto timing = hls::opTiming(inst->opcode(), inst->type());
          return static_cast<double>(profile->countOf(inst->parent())) *
                 static_cast<double>(1 + timing.latency);
        },
        &p.remarks);
  }
  {
    ScopedSpan span(spans, "pipeline.partition");
    pipeline::PartitionOptions options = compile.partition;
    options.remarks = &p.remarks;
    options.blockFreq = [profile = *profile](const ir::BasicBlock* block) {
      return static_cast<double>(profile.countOf(block));
    };
    if (flow == driver::Flow::Legup) {
      p.plan = pipeline::sequentialPlan(*p.sccs, *loop, &p.remarks);
    } else {
      if (Status status = pipeline::checkPartitionOptions(options);
          !status.ok())
        return status;
      options.policy = flow == driver::Flow::CgpaP2
                           ? pipeline::ReplicablePolicy::ForceParallel
                           : pipeline::ReplicablePolicy::Heuristic;
      p.plan = pipeline::partitionLoop(*p.sccs, *loop, options);
    }
  }
  {
    ScopedSpan span(spans, "pipeline.transform");
    if (Status status = pipeline::checkTransformPreconditions(p.plan);
        !status.ok())
      return status;
    p.pipeline = pipeline::transformLoop(*p.fn, p.plan, 0, &p.remarks);
  }
  if (Status status = verify(p, spans); !status.ok())
    return status;

  ScopedSpan span(spans, "hls.schedule");
  hls::ScheduleOptions scheduleOptions = compile.schedule;
  scheduleOptions.remarks = &p.remarks;
  Expected<hls::FunctionSchedule> wrapper =
      hls::scheduleFunctionChecked(*p.fn, scheduleOptions);
  if (!wrapper.ok())
    return wrapper.status();
  hls::AreaReport area = hls::estimateWorkerArea(*p.fn, *wrapper);
  for (const pipeline::TaskInfo& task : p.pipeline.tasks) {
    Expected<hls::FunctionSchedule> schedule =
        hls::scheduleFunctionChecked(*task.fn, scheduleOptions);
    if (!schedule.ok())
      return schedule.status();
    area += hls::estimateWorkerArea(*task.fn, *schedule);
  }
  return Status::success();
}

/// The fuzz-spec path of serve::compileJobPlan, one span per layer call.
Status compileSpec(const JobRequest& job, driver::Flow flow, Plan& p,
                   SpanRecorder& spans) {
  std::optional<fuzz::LoopSpec> spec;
  std::string headerName;
  {
    ScopedSpan span(spans, "fuzz.build_loop");
    spec = fuzz::parseSpecLine(job.spec);
    if (!spec)
      return fail("bad fuzz spec");
    fuzz::GeneratedLoop generated = fuzz::buildLoop(*spec);
    p.module = std::move(generated.module);
    p.fn = generated.fn;
    headerName = generated.headerName;
  }
  {
    ScopedSpan span(spans, "opt.scalar");
    opt::runScalarOptimizations(*p.module);
  }
  if (Status status = verify(p, spans); !status.ok())
    return status;
  buildAnalyses(p, spans);

  ir::BasicBlock* header = p.fn->findBlock(headerName);
  analysis::Loop* loop =
      header != nullptr ? p.loops->loopWithHeader(header) : nullptr;
  if (loop == nullptr)
    return fail("spec loop header not found after optimization");
  {
    ScopedSpan span(spans, "analysis.pdg");
    p.pdg = std::make_unique<analysis::Pdg>(*p.fn, *loop, *p.alias,
                                            *p.controlDeps, &p.remarks);
  }
  {
    ScopedSpan span(spans, "analysis.scc");
    p.sccs = std::make_unique<analysis::SccGraph>(
        *p.pdg,
        [](const ir::Instruction* inst) {
          const auto timing = hls::opTiming(inst->opcode(), inst->type());
          return static_cast<double>(1 + timing.latency);
        },
        &p.remarks);
  }
  {
    ScopedSpan span(spans, "pipeline.partition");
    if (flow == driver::Flow::Legup) {
      p.plan = pipeline::sequentialPlan(*p.sccs, *loop, &p.remarks);
    } else {
      pipeline::PartitionOptions options;
      options.numWorkers = job.workers;
      options.remarks = &p.remarks;
      if (flow == driver::Flow::CgpaP2)
        options.policy = pipeline::ReplicablePolicy::ForceParallel;
      if (Status status = pipeline::checkPartitionOptions(options);
          !status.ok())
        return status;
      p.plan = pipeline::partitionLoop(*p.sccs, *loop, options);
    }
  }
  {
    ScopedSpan span(spans, "pipeline.transform");
    if (Status status = pipeline::checkTransformPreconditions(p.plan);
        !status.ok())
      return status;
    p.pipeline = pipeline::transformLoop(*p.fn, p.plan, 0, &p.remarks);
  }
  return verify(p, spans);
}

Status compile(const JobRequest& job, Plan& p, SpanRecorder& spans) {
  ScopedSpan root(spans, "cgpa.compile");
  Expected<driver::Flow> flow = serve::flowFromString(job.flow);
  if (!flow.ok())
    return flow.status();
  Status status;
  if (!job.kernel.empty()) {
    const kernels::Kernel* kernel = kernels::kernelByName(job.kernel);
    if (kernel == nullptr)
      return fail("unknown kernel " + job.kernel);
    status = compileKernel(*kernel, *flow, job.workers, p, spans);
  } else {
    status = compileSpec(job, *flow, p, spans);
  }
  if (!status.ok())
    return status;
  {
    ScopedSpan span(spans, "ir.print_hash");
    p.irHash = trace::hashHex(trace::fnv1a64(ir::printModule(*p.module)));
  }
  {
    ScopedSpan span(spans, "trace.remarks_digest");
    (void)trace::hashHex(
        trace::fnv1a64(trace::remarksJson(p.remarks).dump(0)));
  }
  ScopedSpan span(spans, "ir.finalize_slots");
  for (const auto& fn : p.module->functions())
    fn->finalizeSlots();
  return Status::success();
}

/// The executor's per-job work against a compiled plan: simulator
/// construction, workload, simulation, reference check, response.
Expected<sim::SimResult> run(const JobRequest& job, const Plan& p,
                             SpanRecorder& spans) {
  ScopedSpan root(spans, "replay.run");
  sim::SystemConfig config;
  config.fifoDepth = job.fifoDepth;
  if (job.maxCycles != 0)
    config.maxCycles = job.maxCycles;
  std::unique_ptr<sim::SystemSimulator> simulator;
  {
    ScopedSpan span(spans, "sim.build");
    simulator = std::make_unique<sim::SystemSimulator>(p.pipeline, config);
  }

  const kernels::Kernel* kernel =
      job.kernel.empty() ? nullptr : kernels::kernelByName(job.kernel);
  kernels::WorkloadConfig workloadConfig;
  workloadConfig.scale = job.scale;
  workloadConfig.seed = job.seed;
  std::optional<fuzz::LoopSpec> spec;
  std::unique_ptr<interp::Memory> memory;
  std::vector<std::uint64_t> args;
  if (kernel != nullptr) {
    ScopedSpan span(spans, "kernels.workload_build");
    kernels::Workload work = kernel->buildWorkload(workloadConfig);
    memory = std::move(work.memory);
    args = std::move(work.args);
  } else {
    ScopedSpan span(spans, "fuzz.workload_build");
    spec = fuzz::parseSpecLine(job.spec);
    if (!spec)
      return fail("bad fuzz spec");
    fuzz::FuzzWorkload work = fuzz::buildWorkload(*spec);
    memory = std::move(work.memory);
    args = std::move(work.args);
  }

  Expected<sim::SimResult> result = [&] {
    ScopedSpan span(spans, "sim.run");
    return simulator->runChecked(*memory, args);
  }();
  if (!result.ok())
    return result.status();

  bool correct = false;
  {
    ScopedSpan verifySpan(spans, "verify");
    std::unique_ptr<interp::Memory> refMemory;
    std::uint64_t refReturn = 0;
    if (kernel != nullptr) {
      std::optional<kernels::Workload> ref;
      {
        ScopedSpan span(spans, "kernels.workload_build");
        ref = kernel->buildWorkload(workloadConfig);
      }
      ScopedSpan span(spans, "kernels.reference");
      refReturn = kernel->runReference(*ref->memory, ref->args);
      refMemory = std::move(ref->memory);
    } else {
      std::optional<fuzz::GeneratedLoop> golden;
      std::optional<fuzz::FuzzWorkload> goldenWork;
      {
        ScopedSpan span(spans, "fuzz.build_loop");
        golden = fuzz::buildLoop(*spec);
      }
      {
        ScopedSpan span(spans, "fuzz.workload_build");
        goldenWork = fuzz::buildWorkload(*spec);
      }
      ScopedSpan span(spans, "interp.reference");
      interp::Interpreter interp(*goldenWork->memory);
      refReturn = interp.run(*golden->fn, goldenWork->args).returnValue;
      refMemory = std::move(goldenWork->memory);
    }
    ScopedSpan span(spans, "verify.compare");
    correct = result->returnValue == refReturn &&
              memory->raw() == refMemory->raw();
  }
  if (!correct)
    return fail("replayed job does not match its reference");

  ScopedSpan serializeSpan(spans, "serialize");
  trace::JsonValue stats;
  {
    ScopedSpan span(spans, "trace.stats_doc");
    trace::StatsDocInputs inputs;
    inputs.result = &*result;
    inputs.pipeline = &p.pipeline;
    inputs.freqMHz = config.freqMHz;
    inputs.kernel = kernel != nullptr ? job.kernel : job.spec;
    inputs.flow = driver::flowName(*serve::flowFromString(job.flow));
    inputs.correct = correct;
    inputs.workers = job.workers;
    inputs.fifoDepth = job.fifoDepth;
    inputs.scale = job.scale;
    inputs.seed = job.seed;
    stats = trace::buildStatsDocument(inputs);
  }
  ScopedSpan span(spans, "trace.json_dump");
  (void)serve::jobResultOk(job.id, true, p.irHash, p.remarks.size(), "",
                           result->cycles, correct, std::move(stats))
      .dump(0);
  return result;
}

std::uint64_t instructionCount(const ir::Module& module) {
  std::uint64_t count = 0;
  for (const auto& fn : module.functions())
    for (const auto& block : fn->blocks())
      count += block->instructions().size();
  return count;
}

} // namespace

ReplayReport replay(const std::vector<ReplayKey>& keys, int repetitions) {
  ReplayReport report;
  for (int rep = 0; rep < repetitions; ++rep) {
    std::size_t outcome = 0;
    for (const ReplayKey& key : keys) {
      Plan plan;
      if (Status status = compile(key.compile, plan, report.spans);
          !status.ok()) {
        if (rep == 0)
          report.errors.push_back(key.compile.compileKey() + ": " +
                                  status.toString());
        continue;
      }
      if (rep == 0) {
        report.irInsts += instructionCount(*plan.module);
        report.channels += plan.pipeline.channels.size();
      }
      for (const JobRequest& job : key.runs) {
        Expected<sim::SimResult> result = run(job, plan, report.spans);
        if (!result.ok()) {
          if (rep == 0)
            report.errors.push_back(serve::jobToJson(job).dump(0) + ": " +
                                    result.status().toString());
          continue;
        }
        if (rep == 0) {
          report.outcomes.push_back({job, plan.irHash, result->cycles});
          report.cycles += result->cycles;
          report.busyCycles += result->cyclesBusy;
          report.engineCycles += result->cyclesBusy + result->stallMem +
                                 result->stallFifoFull +
                                 result->stallFifoEmpty + result->stallDep +
                                 result->cyclesIdle;
        } else if (outcome < report.outcomes.size()) {
          const ReplayOutcome& first = report.outcomes[outcome];
          if (first.cycles != result->cycles || first.irHash != plan.irHash)
            report.errors.push_back(serve::jobToJson(job).dump(0) +
                                    ": replay did not repeat");
        }
        ++outcome;
      }
    }
  }
  return report;
}

std::map<std::string, double> layerMicros(const SpanRecorder& recorder) {
  const std::vector<Span>& spans = recorder.spans();
  std::vector<int> rootOf(spans.size());
  std::map<std::string, std::vector<double>> wall;
  std::map<std::string, std::vector<double>> cpu;
  std::map<int, std::map<std::string, std::pair<double, double>>> perRoot;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const int index = static_cast<int>(i);
    if (span.parent < 0) {
      rootOf[i] = index;
      wall[span.name].push_back(static_cast<double>(span.durationNanos()) /
                                1e3);
      cpu[span.name].push_back(static_cast<double>(span.cpuNanos) / 1e3);
      wall[span.name + "_self"].push_back(
          static_cast<double>(recorder.selfNanos(index)) / 1e3);
      continue;
    }
    rootOf[i] = rootOf[static_cast<std::size_t>(span.parent)];
    auto& [w, c] = perRoot[rootOf[i]][span.name];
    w += static_cast<double>(span.durationNanos()) / 1e3;
    c += static_cast<double>(span.cpuNanos) / 1e3;
  }
  for (const auto& [root, names] : perRoot)
    for (const auto& [name, sums] : names) {
      wall[name].push_back(sums.first);
      cpu[name].push_back(sums.second);
    }
  std::map<std::string, double> out;
  for (auto& [name, values] : wall)
    out[name + "_us"] = median(values);
  for (auto& [name, values] : cpu)
    out[name + "_cpu_us"] = median(values);
  return out;
}

} // namespace perfbench

// filler: the Fig. 1 filler application on 2 machines x 8 cores under the
// phased high-priority antagonist (10 ms busy / 10 ms idle, anti-phase).
// Two small compute proclets run ~100 us filler tasks at normal priority; a
// feeder keeps each proclet's queue topped up (a closed loop of 16 tasks
// per proclet), and the local reactors migrate the proclets to whichever
// machine is idle, about once per 10 ms phase. A task cut short by a
// migration cancels its CPU request and resubmits its remainder, which
// follows the proclet.

#include <memory>

#include "runner/workloads.h"
#include "quicksand/cluster/antagonist.h"
#include "quicksand/common/bytes.h"
#include "quicksand/common/random.h"
#include "quicksand/proclet/compute_proclet.h"
#include "quicksand/sched/local_reactor.h"

namespace perfbench {
namespace {

using namespace quicksand;

constexpr int kCores = 8;
constexpr Duration kPhase = Duration::Millis(10);
constexpr Duration kRun = Duration::Seconds(4);
constexpr Duration kSlice = Duration::Millis(2);
constexpr int kFillerProclets = 2;
constexpr int kWorkersPerProclet = 4;
constexpr int kQueueTarget = 16;
// More task costs than a run submits; the feeder wraps around if not.
constexpr size_t kCostInputs = 1 << 20;

struct FillerState {
  std::vector<Duration> costs;  // the generated inputs, used in order
  bool feeding = true;
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t resubmit_failures = 0;
  std::vector<int64_t> task_ns;  // per task: submit -> completion
  SpanLog* spans = nullptr;
};

// One filler task: burn `remaining` at normal priority; if the hosting
// proclet quiesces for migration, resubmit the remainder to it.
ComputeProclet::Job FillerJob(Duration remaining, SimTime submitted,
                              uint64_t task_span, uint64_t id,
                              std::shared_ptr<FillerState> st) {
  return [remaining, submitted, task_span, id, st](Ctx ctx) -> Task<> {
    auto* proclet = ctx.rt->UnsafeGet<ComputeProclet>(ctx.caller_proclet);
    QS_CHECK(proclet != nullptr);
    Simulator& sim = ctx.rt->sim();
    const uint64_t run = st->spans->Begin("run", sim.Now(), task_span, id);
    const Duration left = co_await ctx.rt->cluster()
                              .machine(ctx.machine)
                              .cpu()
                              .RunCancellable(remaining, kPriorityNormal,
                                              proclet->cancel_token());
    st->spans->End(run, sim.Now());
    if (left > Duration::Zero()) {
      if (!proclet->SubmitFromJob(FillerJob(left, submitted, task_span, id, st)).ok()) {
        ++st->resubmit_failures;
      }
      co_return;
    }
    st->spans->End(task_span, sim.Now());
    st->task_ns.push_back((sim.Now() - submitted).nanos());
    ++st->completed;
  };
}

Task<> Feeder(Runtime& rt, std::vector<Ref<ComputeProclet>> proclets,
              std::shared_ptr<FillerState> st) {
  while (st->feeding) {
    for (const Ref<ComputeProclet>& ref : proclets) {
      auto* p = rt.UnsafeGet<ComputeProclet>(ref.id());
      if (p == nullptr || p->gate_closed()) {
        continue;
      }
      while (p->queue_depth() + p->inflight() < kQueueTarget) {
        const uint64_t id = static_cast<uint64_t>(st->submitted) + 1;
        const SimTime now = rt.sim().Now();
        const uint64_t span = st->spans->Begin("task", now, 0, id);
        const Duration cost = st->costs[(id - 1) % st->costs.size()];
        if (!p->Submit(FillerJob(cost, now, span, id, st)).ok()) {
          st->spans->End(span, now);
          break;
        }
        ++st->submitted;
      }
    }
    co_await rt.sim().Sleep(Duration::Micros(100));
  }
}

}  // namespace

void RunFiller(const Options& options, Report& report) {
  // --- Inputs: task costs, uniform in [50, 150] us (mean 100 us, the
  // Fig. 1 task), from the seed. The feeder hands them out in order.
  auto st = std::make_shared<FillerState>();
  Rng rng(InputSeed(options.seed, 4));
  st->costs.resize(kCostInputs);
  for (Duration& cost : st->costs) {
    cost = Duration::Nanos(rng.NextInRange(50000, 150000));
  }

  // --- Setup: cluster, runtime, antagonists, filler proclets, reactors.
  const double setup0 = WallSeconds();
  Simulator sim;
  Cluster cluster(sim);
  MachineSpec spec;
  spec.cores = kCores;
  spec.memory_bytes = 8 * kGiB;
  cluster.AddMachine(spec);
  cluster.AddMachine(spec);
  Runtime rt(sim, cluster);
  std::vector<std::unique_ptr<PhasedAntagonist>> antagonists;
  for (MachineId m = 0; m < 2; ++m) {
    PhasedAntagonistConfig cfg;
    cfg.busy = kPhase;
    cfg.idle = kPhase;
    cfg.phase_offset = m == 0 ? Duration::Zero() : kPhase;
    antagonists.push_back(std::make_unique<PhasedAntagonist>(sim, cluster.machine(m), cfg));
    antagonists.back()->Start();
  }
  std::vector<Ref<ComputeProclet>> proclets;
  const Ctx ctx = rt.CtxOn(0);
  for (int i = 0; i < kFillerProclets; ++i) {
    PlacementRequest req;
    req.heap_bytes = 64 * kKiB;  // small proclet: sub-ms migration
    req.pinned = MachineId{0};
    proclets.push_back(*sim.BlockOn(rt.Create<ComputeProclet>(ctx, req, kWorkersPerProclet)));
  }
  LocalReactorConfig reactor_cfg;
  reactor_cfg.period = Duration::Micros(250);
  reactor_cfg.cpu_starvation_threshold = Duration::Micros(300);
  auto reactors = StartLocalReactors(rt, reactor_cfg);
  report.Host("setup_s", WallSeconds() - setup0);

  const std::unique_ptr<Tracer> tracer = AttachTracer(options, rt);
  SpanLog spans(options.traced());
  st->spans = &spans;

  // --- Timed phase: feed for kRun, then stop feeding and drain.
  SliceRunner runner(sim, kSlice);
  ClusterPeaks peaks;
  const Counters before = TakeCounters(rt, reactors);
  HostPhase phase;
  phase.Start();
  const SimTime start = sim.Now();
  sim.Spawn(Feeder(rt, proclets, st), "feeder");
  runner.RunUntilDone([&] { return sim.Now() >= start + kRun; },
                      [&] { peaks.Sample(cluster); }, start + kRun);
  st->feeding = false;
  const bool drained = runner.RunUntilDone(
      [&] { return st->completed == st->submitted; }, [&] { peaks.Sample(cluster); },
      start + kRun + Duration::Seconds(1));
  const double timed_cpu_s = phase.Finish(runner, report);
  const Counters after = TakeCounters(rt, reactors);

  // --- Checks.
  const int64_t migrations = after.rt.migrations - before.rt.migrations;
  report.Check("all_tasks_completed", drained && st->completed == st->submitted,
               std::to_string(st->completed) + " of " + std::to_string(st->submitted));
  report.Check("resubmits_accepted", st->resubmit_failures == 0,
               std::to_string(st->resubmit_failures));
  report.Check("migrated", migrations > 0, std::to_string(migrations) + " migrations");

  // --- Model metrics.
  const double timed_sim_s = (after.at - start).seconds();
  const Tail op = TailOf(st->task_ns);
  report.Check("op_samples_cover_p99", op.pct >= 99.0, std::to_string(op.n) + " tasks");
  report.Model("ok_frac", static_cast<double>(st->completed) /
                              static_cast<double>(std::max<int64_t>(1, st->submitted)));
  report.Model("sim_goodput_ops_per_s", static_cast<double>(st->completed) / timed_sim_s);
  report.Model("sim_op_p50_us", static_cast<double>(op.p50) / 1e3);
  report.Model("sim_op_p99_us", static_cast<double>(op.tail) / 1e3);
  report.Counts(st->submitted, st->submitted - st->completed);

  // --- Layers.
  ReportCommonLayers(before, after, rt, st->submitted, timed_cpu_s, runner, peaks, report);
  report.Layer("sched.rebalancer_migrations", 0.0);  // no GlobalRebalancer runs here

  ReportTrace(tracer.get(), spans, options, report);
}

}  // namespace perfbench

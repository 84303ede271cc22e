// Figure 2 reproduction: "Quicksand efficiently combines resources from
// different machines, even when they are heavily imbalanced."
//
// The DNN preprocessing pipeline (sharded image vector -> compute-proclet
// preprocessing with prefetching iterators -> sharded tensor queue ->
// delay-emulated GPU consumers) runs with a fixed resource total (46 cores,
// 13 GiB) split across machines four ways:
//
//   Baseline          46 cores / 13 GiB on one machine          (paper: 26.1s)
//   CPU-unbalanced     6c+6.5GiB | 40c+6.5GiB                   (paper: 26.4s)
//   Mem-unbalanced    23c+1GiB   | 23c+12GiB                    (paper: 26.6s)
//   Both-unbalanced    6c+12GiB  | 40c+1GiB                     (paper: 26.5s)
//
// Quicksand's placement sends memory proclets to free memory and compute
// proclets to idle cores, and the prefetcher hides remote reads, so all
// four configurations should complete in nearly the same time.
//
// The dataset is the paper's full-scale calibration (60000 images), so the
// paper column is printed unscaled (the 1.00x dataset factor).

#include <algorithm>
#include <cstdio>

#include "quicksand/app/image.h"
#include "quicksand/app/trainer.h"
#include "quicksand/common/bytes.h"
#include "quicksand/compute/parallel.h"
#include "quicksand/ds/sharded_queue.h"
#include "quicksand/sched/global_rebalancer.h"
#include "quicksand/sched/local_reactor.h"
#include "quicksand/trace/bench_trace.h"

namespace quicksand {
namespace {

BenchTrace* g_trace = nullptr;

struct Config {
  const char* name;
  double paper_seconds;
  std::vector<MachineSpec> machines;
};

MachineSpec Spec(int cores, double mem_gib) {
  MachineSpec spec;
  spec.cores = cores;
  spec.memory_bytes = static_cast<int64_t>(mem_gib * static_cast<double>(kGiB));
  spec.cpu_quantum = Duration::Micros(500);  // coarse: seconds-scale run
  return spec;
}

struct RunStats {
  double seconds = 0;
  double cpu_util[2] = {0, 0};
  int64_t peak_mem[2] = {0, 0};
  int64_t remote_invocations = 0;
  int64_t migrations = 0;
  int64_t reactor_cpu = 0;
  int64_t reactor_mem = 0;
  int64_t rebalancer = 0;
};

RunStats RunConfig(const Config& config, int64_t num_images) {
  Simulator sim;
  Cluster cluster(sim);
  for (const MachineSpec& spec : config.machines) {
    cluster.AddMachine(spec);
  }
  Runtime rt(sim, cluster);
  (void)AttachBenchTracer(g_trace, rt, config.name);
  auto reactors = StartLocalReactors(rt);
  GlobalRebalancerConfig rebalance_cfg;
  rebalance_cfg.period = Duration::Millis(20);
  GlobalRebalancer rebalancer(rt, rebalance_cfg);
  rebalancer.Start();
  const Ctx ctx = rt.CtxOn(0);

  // --- Load the dataset into a sharded vector (not timed; the paper times
  // the preprocessing stage).
  ImageGenerator generator(/*seed=*/2023);
  ShardedVector<Image>::Options vec_options;
  vec_options.max_shard_bytes = 16 * kMiB;
  auto vec = *sim.BlockOn(ShardedVector<Image>::Create(ctx, vec_options));
  for (int64_t i = 0; i < num_images; ++i) {
    const Image image = generator.Generate(static_cast<uint64_t>(i));
    auto push = vec.PushBack(ctx, image);
    Result<uint64_t> pushed = sim.BlockOn(std::move(push));
    QS_CHECK_MSG(pushed.ok(), pushed.status().ToString().c_str());
  }

  // --- Tensor queue and (ample) emulated GPUs.
  ShardedQueue<Tensor>::Options queue_options;
  queue_options.max_segment_bytes = 8 * kMiB;
  auto queue = *sim.BlockOn(ShardedQueue<Tensor>::Create(ctx, queue_options));
  GpuTrainerConfig gpu_cfg;
  gpu_cfg.initial_gpus = 8;
  gpu_cfg.max_gpus = 8;
  gpu_cfg.batch_size = 32;
  gpu_cfg.batch_time = Duration::Millis(4);  // 64k tensors/s: never the bottleneck
  GpuTrainer trainer(rt, queue, gpu_cfg);
  trainer.Start();

  // --- Compute pool: enough workers to saturate every core even while some
  // streams wait on fetches.
  const int total_cores = cluster.total_cores();
  DistPool::Options pool_options;
  pool_options.workers_per_proclet = 4;
  pool_options.initial_proclets = std::max(2, total_cores / 2);
  DistPool pool = *sim.BlockOn(DistPool::Create(ctx, pool_options));

  PreprocessCostModel cost_model;
  const SimTime start = sim.Now();
  std::vector<Duration> busy0(cluster.size());
  for (MachineId m = 0; m < cluster.size(); ++m) {
    busy0[m] = cluster.machine(m).cpu().TotalBusy();
  }

  ParallelOptions par_options;
  // Enough spans that every worker stays busy even at small dataset scales.
  const int64_t total_workers =
      pool_options.initial_proclets * pool_options.workers_per_proclet;
  par_options.span_elems = static_cast<uint64_t>(
      std::max<int64_t>(16, num_images / (4 * total_workers)));
  par_options.chunk_elems = 16;  // ~3.2 MB per prefetched chunk
  Status status = sim.BlockOn(ParallelForEach(
      ctx, pool, vec,
      [queue, cost_model](Ctx job_ctx, uint64_t, Image image) mutable -> Task<> {
        (void)co_await MigratableBurn(job_ctx, PreprocessCost(image, cost_model));
        auto push = queue.Push(job_ctx, MakeTensor(image, cost_model));
        Status pushed = co_await std::move(push);
        if (!pushed.ok()) {
          throw std::runtime_error("tensor push failed: " + pushed.ToString());
        }
      },
      par_options));
  QS_CHECK_MSG(status.ok(), status.ToString().c_str());

  RunStats stats;
  stats.seconds = (sim.Now() - start).seconds();
  for (MachineId m = 0; m < cluster.size() && m < 2; ++m) {
    stats.cpu_util[m] = cluster.machine(m).cpu().UtilizationSince(start, busy0[m]);
    stats.peak_mem[m] = cluster.machine(m).memory().high_watermark();
  }
  stats.remote_invocations = rt.stats().remote_invocations;
  stats.migrations = rt.stats().migrations;
  for (const auto& reactor : reactors) {
    stats.reactor_cpu += reactor->cpu_evictions();
    stats.reactor_mem += reactor->memory_evictions();
  }
  stats.rebalancer = rebalancer.total_migrations();
  return stats;
}

void Main() {
  constexpr int64_t kImages = 60000;

  std::vector<Config> configs = {
      {"Baseline (1 machine)", 26.1, {Spec(46, 13.0)}},
      {"CPU-unbalanced", 26.4, {Spec(6, 6.5), Spec(40, 6.5)}},
      {"Mem-unbalanced", 26.6, {Spec(23, 1.0), Spec(23, 12.0)}},
      {"Both-unbalanced", 26.5, {Spec(6, 12.0), Spec(40, 1.0)}},
  };

  std::printf("=== Figure 2: preprocessing pipeline under resource imbalance ===\n");
  std::printf("images: %lld (scale 1.00x of the paper's calibration)\n\n",
              static_cast<long long>(kImages));
  std::printf("%-22s %10s %12s %12s %9s %9s %8s %8s\n", "configuration", "time[s]",
              "paper[s]*", "vs baseline", "cpu0", "cpu1", "remote", "migr");

  double baseline_seconds = 0;
  for (const Config& config : configs) {
    const RunStats stats = RunConfig(config, kImages);
    if (baseline_seconds == 0) {
      baseline_seconds = stats.seconds;
    }
    std::printf("%-22s %10.1f %12.1f %11.1f%% %8.0f%% %8.0f%% %8lld %8lld"
                " (cpu:%lld mem:%lld glob:%lld)\n",
                config.name, stats.seconds, config.paper_seconds,
                100.0 * stats.seconds / baseline_seconds,
                100.0 * stats.cpu_util[0],
                config.machines.size() > 1 ? 100.0 * stats.cpu_util[1] : 0.0,
                static_cast<long long>(stats.remote_invocations),
                static_cast<long long>(stats.migrations),
                static_cast<long long>(stats.reactor_cpu),
                static_cast<long long>(stats.reactor_mem),
                static_cast<long long>(stats.rebalancer));
  }
  std::printf("\n* paper values scaled by the dataset factor. Shape to check: all\n"
              "  imbalanced configurations land within a few percent of baseline.\n");
}

}  // namespace
}  // namespace quicksand

int main(int argc, char** argv) {
  quicksand::BenchTrace trace = quicksand::BenchTrace::FromArgs(argc, argv);
  quicksand::g_trace = &trace;
  quicksand::Main();
  return 0;
}

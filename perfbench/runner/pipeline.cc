// pipeline: the Fig. 2 Both-unbalanced configuration (6 cores / 12 GiB +
// 40 cores / 1 GiB) preprocessing a closed batch of synthetic images:
// ShardedVector -> prefetching VectorStream -> DistPool jobs running the
// preprocess cost model -> ShardedQueue -> emulated GPU trainer.
//
// The batch runs through ParallelForEach with Fig. 2's span and chunk
// sizes; the runner's per-image function times each image.

#include <algorithm>
#include <memory>

#include "runner/workloads.h"
#include "quicksand/app/image.h"
#include "quicksand/app/trainer.h"
#include "quicksand/common/bytes.h"
#include "quicksand/compute/dist_pool.h"
#include "quicksand/compute/parallel.h"
#include "quicksand/ds/sharded_queue.h"
#include "quicksand/ds/sharded_vector.h"
#include "quicksand/sched/global_rebalancer.h"
#include "quicksand/sched/local_reactor.h"

namespace perfbench {
namespace {

using namespace quicksand;

constexpr int64_t kImages = 25000;
// The paper's Both-unbalanced time for its 60000-image dataset (Fig. 2).
constexpr double kPaperSeconds = 26.5;
constexpr int64_t kPaperImages = 60000;
constexpr Duration kSlice = Duration::Millis(5);
constexpr uint64_t kChunkElems = 16;  // ~3.2 MB per prefetched chunk

MachineSpec Spec(int cores, double mem_gib) {
  MachineSpec spec;
  spec.cores = cores;
  spec.memory_bytes = static_cast<int64_t>(mem_gib * static_cast<double>(kGiB));
  spec.cpu_quantum = Duration::Micros(500);
  return spec;
}

// What the per-image function records while the batch runs. ParallelForEach
// gives span k of the vector, [k * span_elems, (k + 1) * span_elems), to one
// pool job that streams it in chunks of kChunkElems, so an image's index
// tells its job and whether it opens a chunk.
struct PipelineState {
  PipelineState(uint64_t span_elems, size_t jobs)
      : span_elems(span_elems), job_first(jobs), job_last(jobs) {}
  uint64_t span_elems;
  std::vector<SimTime> job_first;  // per job: when its first image arrived
  std::vector<SimTime> job_last;   // per job: when its latest tensor was pushed
  std::vector<int64_t> image_ns;   // per image: see ProcessImage
  int64_t chunks = 0;              // chunks that reached the function
  int64_t prefetch_ready = 0;      // chunk handed over with no simulated wait
  int64_t prefetch_waited = 0;     // chunk the job had to wait for
  int64_t pushed = 0;
  bool done = false;
  Status status = Status::Ok();
  SimTime preprocessed_at;
};

// The per-image function: burn the preprocess cost, push the tensor. An
// image's time runs from when the previous image of its job was pushed (so
// it includes the stream handing over this one, and any wait for a
// prefetched chunk) to when its tensor is pushed; a job's first image starts
// when it arrives. A chunk boundary reached with no simulated time since the
// previous push found its prefetch ready.
Task<> ProcessImage(Ctx ctx, ShardedQueue<Tensor> queue, uint64_t index, Image image,
                    PipelineState* st, SpanLog* spans) {
  Simulator& sim = ctx.rt->sim();
  const PreprocessCostModel cost_model;
  const size_t job = index / st->span_elems;
  const uint64_t offset = index % st->span_elems;
  const SimTime arrived = sim.Now();
  const SimTime t0 = offset == 0 ? arrived : st->job_last[job];
  if (offset == 0) {
    st->job_first[job] = arrived;
  } else if (offset % kChunkElems == 0 && arrived > t0) {
    ++st->prefetch_waited;
  } else if (offset % kChunkElems == 0) {
    ++st->prefetch_ready;
  }
  if (offset % kChunkElems == 0) {
    ++st->chunks;
  }
  const uint64_t rid = index + 1;
  const uint64_t span = spans->Begin("image", t0, 0, rid);
  spans->End(spans->Begin("fetch", t0, span, rid), arrived);

  const uint64_t burn = spans->Begin("burn", sim.Now(), span, rid);
  (void)co_await MigratableBurn(ctx, PreprocessCost(image, cost_model));
  spans->End(burn, sim.Now());

  const uint64_t push_span = spans->Begin("push", sim.Now(), span, rid);
  auto push = queue.Push(ctx, MakeTensor(image, cost_model));
  const Status pushed = co_await std::move(push);
  spans->End(push_span, sim.Now());
  spans->End(span, sim.Now());
  if (pushed.ok()) {
    ++st->pushed;
  }
  st->job_last[job] = sim.Now();
  st->image_ns.push_back((sim.Now() - t0).nanos());
}

Task<> Preprocess(Ctx ctx, DistPool pool, ShardedVector<Image> vec,
                  ShardedQueue<Tensor> queue, PipelineState* st, SpanLog* spans) {
  ParallelOptions par;
  par.span_elems = st->span_elems;
  par.chunk_elems = kChunkElems;
  auto each = ParallelForEach(
      ctx, pool, vec,
      [queue, st, spans](Ctx job_ctx, uint64_t index, Image image) {
        return ProcessImage(job_ctx, queue, index, std::move(image), st, spans);
      },
      par);
  st->status = co_await std::move(each);
  st->preprocessed_at = ctx.rt->sim().Now();
  st->done = true;
}

}  // namespace

void RunPipeline(const Options& options, Report& report) {
  // --- Inputs: the dataset, from the seed.
  const ImageGenerator generator(InputSeed(options.seed, 1));
  std::vector<Image> images;
  images.reserve(kImages);
  for (int64_t i = 0; i < kImages; ++i) {
    images.push_back(generator.Generate(static_cast<uint64_t>(i)));
  }

  // --- Setup: cluster, runtime, schedulers, dataset load, queue, trainer,
  // compute pool.
  const double setup0 = WallSeconds();
  Simulator sim;
  Cluster cluster(sim);
  cluster.AddMachine(Spec(6, 12.0));
  cluster.AddMachine(Spec(40, 1.0));
  Runtime rt(sim, cluster);
  auto reactors = StartLocalReactors(rt);
  GlobalRebalancerConfig rebalance_cfg;
  rebalance_cfg.period = Duration::Millis(20);
  GlobalRebalancer rebalancer(rt, rebalance_cfg);
  rebalancer.Start();
  const Ctx ctx = rt.CtxOn(0);

  ShardedVector<Image>::Options vec_options;
  vec_options.max_shard_bytes = 16 * kMiB;
  auto vec = *sim.BlockOn(ShardedVector<Image>::Create(ctx, vec_options));
  for (const Image& image : images) {
    Result<uint64_t> pushed = sim.BlockOn(vec.PushBack(ctx, image));
    QS_CHECK_MSG(pushed.ok(), pushed.status().ToString().c_str());
  }
  ShardedQueue<Tensor>::Options queue_options;
  queue_options.max_segment_bytes = 8 * kMiB;
  auto queue = *sim.BlockOn(ShardedQueue<Tensor>::Create(ctx, queue_options));
  // Fig. 2's 8 GPUs x 32 tensors / 4 ms, as one-tensor batches so that the
  // last tensors of the batch are consumed too (64k tensors/s: never the
  // bottleneck).
  GpuTrainerConfig gpu_cfg;
  gpu_cfg.initial_gpus = 8;
  gpu_cfg.max_gpus = 8;
  gpu_cfg.batch_size = 1;
  gpu_cfg.batch_time = Duration::Micros(125);
  GpuTrainer trainer(rt, queue, gpu_cfg);
  trainer.Start();
  DistPool::Options pool_options;
  pool_options.workers_per_proclet = 4;
  pool_options.initial_proclets = std::max(2, cluster.total_cores() / 2);
  DistPool pool = *sim.BlockOn(DistPool::Create(ctx, pool_options));
  report.Host("setup_s", WallSeconds() - setup0);
  const Result<uint64_t> size = sim.BlockOn(vec.Size(ctx));
  report.Check("dataset_loaded", size.ok() && *size == static_cast<uint64_t>(kImages),
               size.ok() ? std::to_string(*size) : size.status().ToString());

  const std::unique_ptr<Tracer> tracer = AttachTracer(options, rt);
  SpanLog spans(options.traced());

  // --- Timed phase: preprocess every image and drain the trainer.
  const int64_t total_workers =
      int64_t{pool_options.initial_proclets} * pool_options.workers_per_proclet;
  const uint64_t span_elems =
      static_cast<uint64_t>(std::max<int64_t>(16, kImages / (4 * total_workers)));
  const int64_t rebalancer0 = rebalancer.total_migrations();
  const int64_t submitted0 = pool.submitted();
  const int64_t consumed0 = trainer.tensors_consumed();

  const size_t jobs = static_cast<size_t>((kImages + span_elems - 1) / span_elems);
  PipelineState st(span_elems, jobs);
  st.image_ns.reserve(kImages);
  SliceRunner runner(sim, kSlice);
  ClusterPeaks peaks;
  const Counters before = TakeCounters(rt, reactors);
  HostPhase phase;
  phase.Start();
  sim.Spawn(Preprocess(ctx, pool, vec, queue, &st, &spans), "preprocess");
  const SimTime start = sim.Now();
  const bool drained = runner.RunUntilDone(
      [&] { return st.done && trainer.tensors_consumed() - consumed0 >= kImages; },
      [&] { peaks.Sample(cluster); }, start + Duration::Seconds(600));
  const double timed_cpu_s = phase.Finish(runner, report);
  const Counters after = TakeCounters(rt, reactors);

  // --- Checks.
  const int64_t consumed = trainer.tensors_consumed() - consumed0;
  report.Check("drained", drained, "preprocess and trainer finished");
  report.Check("preprocess_status", st.status.ok(), st.status.ToString());
  report.Check("images_produced_eq_dataset", st.pushed == kImages,
               std::to_string(st.pushed));
  report.Check("tensors_consumed_eq_dataset", consumed == kImages,
               std::to_string(consumed));

  // --- Model metrics.
  const double timed_sim_s = (after.at - start).seconds();
  const Tail op = TailOf(st.image_ns);
  report.Check("op_samples_cover_p99", op.pct >= 99.0, std::to_string(op.n) + " images");
  report.Model("ok_frac", static_cast<double>(st.pushed) / static_cast<double>(kImages));
  report.Model("sim_goodput_ops_per_s", static_cast<double>(consumed) / timed_sim_s);
  report.Model("sim_op_p50_us", static_cast<double>(op.p50) / 1e3);
  report.Model("sim_op_p99_us", static_cast<double>(op.tail) / 1e3);
  report.Counts(kImages, kImages - st.pushed);

  // --- Layers.
  ReportCommonLayers(before, after, rt, kImages, timed_cpu_s, runner, peaks, report);
  report.Layer("ds.chunks_fetched", static_cast<double>(st.chunks));
  const int64_t asked = st.prefetch_ready + st.prefetch_waited;
  report.Layer("ds.prefetch_ready_frac",
               asked > 0 ? static_cast<double>(st.prefetch_ready) / static_cast<double>(asked)
                         : 0.0);
  report.Layer("ds.prefetch_waited", static_cast<double>(st.prefetch_waited));
  report.Layer("compute.tasks_submitted", static_cast<double>(pool.submitted() - submitted0));
  std::vector<int64_t> job_ns;  // per job: first image in hand -> last tensor pushed
  for (size_t k = 0; k < jobs; ++k) {
    job_ns.push_back((st.job_last[k] - st.job_first[k]).nanos());
  }
  report.Layer("compute.task_p99_us", static_cast<double>(TailOf(job_ns).tail) / 1e3);
  report.Layer("app.images_produced", static_cast<double>(st.pushed));
  report.Layer("app.tensors_consumed", static_cast<double>(consumed));
  // Signed error of the modelled preprocessing time against the paper's
  // Both-unbalanced figure, scaled to this dataset size. The model is
  // calibrated, not validated against hardware.
  const double paper_s = kPaperSeconds * static_cast<double>(kImages) /
                         static_cast<double>(kPaperImages);
  report.Layer("app.paper_error_frac", ((st.preprocessed_at - start).seconds() - paper_s) / paper_s);
  report.Layer("sched.rebalancer_migrations",
               static_cast<double>(rebalancer.total_migrations() - rebalancer0));

  ReportTrace(tracer.get(), spans, options, report);
}

}  // namespace perfbench

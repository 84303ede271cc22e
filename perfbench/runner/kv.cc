// kv_read / kv_write: open-loop Poisson load on the serving tier. One
// frontend machine and five 2-core hosts: the frontend's two shards start
// on two of them, the memo tier's shards live on the other three, and the
// autoscaler may split or move shards onto any of them. Admission control,
// the memo tier, the local reactors and the autoscaler are all attached on
// both workloads; the request mix decides which of them do work.
//
//  kv_read  — 98% reads at a rate well below capacity: memo hits, CPU
//             run-queue wait, no sheds, and an autoscaler that stays idle.
//  kv_write — 80% writes (each one bumps the key's memo salt) plus a 20 ms
//             flash crowd on 32 hot keys: admission sheds, retries and
//             autoscale splits (and, on some seeds, migrations).

#include <algorithm>
#include <memory>

#include "runner/workloads.h"
#include "quicksand/autoscale/autoscaler.h"
#include "quicksand/common/bytes.h"
#include "quicksand/memo/memo_directory.h"
#include "quicksand/overload/admission.h"
#include "quicksand/proclet/fenced_kv_proclet.h"
#include "quicksand/sched/local_reactor.h"
#include "quicksand/serving/kv_frontend.h"

namespace perfbench {
namespace {

using namespace quicksand;

constexpr int kMachines = 6;  // m0 frontend + 5 hosts
constexpr int kCoresPerMachine = 2;
constexpr int kInitialShards = 2;
constexpr Duration kServiceTime = Duration::Micros(50);
constexpr Duration kSlo = Duration::Millis(2);
constexpr Duration kSlice = Duration::Millis(1);
// Timer granularity of the load generator.
constexpr Duration kClientTick = Duration::Micros(1);
constexpr double kPerHostQps = kCoresPerMachine * 1e9 / 50e3;  // 40k

KvMix MixFor(bool write_heavy) {
  KvMix mix;
  if (!write_heavy) {
    mix.qps = 40000;
    mix.duration = Duration::Seconds(5);
    mix.read_fraction = 0.98;
  } else {
    mix.qps = 30000;
    mix.duration = Duration::Seconds(4);
    mix.read_fraction = 0.2;
    // Kept short: how the autoscaler rides out a long flash depends on the
    // exact arrival pattern, which would make the p99 a property of the
    // seed rather than of the program.
    mix.flash_start = Duration::Millis(2000);
    mix.flash_end = Duration::Millis(2020);
    mix.flash_multiplier = 3.5;
    mix.flash_key_fraction = 0.7;
    mix.flash_keys = 32;
  }
  return mix;
}

// The value KvFrontend writes for `key` (kv_frontend.cc).
int64_t WrittenValue(uint64_t key) { return static_cast<int64_t>(key) * 31 + 7; }

}  // namespace

void RunKv(const Options& options, bool write_heavy, Report& report) {
  // --- Inputs: the request schedule, from the seed.
  const KvMix mix = MixFor(write_heavy);
  const std::vector<KvRequest> schedule =
      GenerateKvSchedule(mix, InputSeed(options.seed, write_heavy ? 3 : 2));
  const int64_t ops = static_cast<int64_t>(schedule.size());

  // --- Setup: cluster, runtime, admission, frontend shards, memo tier,
  // key preload, reactors, autoscaler.
  const double setup0 = WallSeconds();
  Simulator sim;
  Cluster cluster(sim);
  for (int i = 0; i < kMachines; ++i) {
    MachineSpec spec;
    spec.cores = kCoresPerMachine;
    spec.memory_bytes = 2 * kGiB;
    cluster.AddMachine(spec);
  }
  Runtime rt(sim, cluster);
  AdmissionOptions aopt;
  aopt.target = Duration::Micros(200);
  aopt.interval = Duration::Micros(500);
  AdmissionController admission(cluster, aopt);
  rt.AttachAdmission(&admission);

  KvFrontendOptions fopt;
  fopt.shards = kInitialShards;
  fopt.slo = kSlo;
  fopt.service_time = kServiceTime;
  fopt.memo_reads = true;
  // A shed request is retried rather than failed: the client keeps trying
  // past the SLO (it then counts as late), with up to 16 attempts, backoff
  // capped at 5 ms and a retry budget deep enough for a flash crowd. Every
  // request therefore completes, and overload shows up as sheds, retries
  // and lateness.
  fopt.deadline_propagation = false;
  fopt.max_attempts = 16;
  fopt.budget.capacity = 1e6;
  KvFrontend frontend(rt, fopt);
  QS_CHECK_MSG(sim.BlockOn(frontend.Start(rt.CtxOn(0))).ok(), "frontend start failed");
  std::vector<MachineId> memo_hosts;
  for (MachineId m = 1 + kInitialShards; m < cluster.size(); ++m) {
    memo_hosts.push_back(m);
  }
  MemoDirectoryOptions mopt;
  mopt.shards = 4;
  mopt.hosts = memo_hosts;
  MemoDirectory memo(rt, mopt);
  QS_CHECK_MSG(sim.BlockOn(memo.Start(rt.CtxOn(0))).ok(), "memo start failed");
  frontend.AttachMemo(&memo);
  int64_t preload_failures = 0;
  for (uint64_t key = 0; key < kKvKeys; ++key) {
    if (!sim.BlockOn(frontend.ServeDetailed(key, /*is_read=*/false))) {
      ++preload_failures;
    }
  }

  AutoscalerOptions sopt;
  sopt.period = Duration::Millis(1);
  sopt.executor.slo = kSlo;
  // Shard budget: 2 per host (past it the planner migrates instead).
  sopt.planner.max_shards = 2 * (kMachines - 1);
  sopt.detector.rate_floor_qps = 0.25 * kPerHostQps;
  Autoscaler autoscaler(rt, frontend, sopt);
  autoscaler.AttachAdmission(&admission);
  auto reactors = StartLocalReactors(rt);
  for (auto& reactor : reactors) {
    reactor->AttachOverload(&admission);
    reactor->AttachAutoscaler(&autoscaler);
  }
  autoscaler.Start();
  report.Host("setup_s", WallSeconds() - setup0);
  report.Check("keys_preloaded", preload_failures == 0,
               std::to_string(preload_failures) + " preload writes failed");

  const std::unique_ptr<Tracer> tracer = AttachTracer(options, rt);
  SpanLog spans(options.traced());

  // --- Timed phase: the open-loop schedule, then the drain.
  const int64_t offered0 = frontend.offered();
  const int64_t in_slo0 = frontend.ok_in_slo();
  const int64_t late0 = frontend.ok_late();
  const int64_t failed0 = frontend.failed();
  const int64_t retries0 = frontend.retries();
  const int64_t moved0 = frontend.moved_reroutes();
  const int64_t memo_serves0 = frontend.memo_serves();
  const int64_t admits0 = admission.admits();
  const int64_t sheds0 = admission.sheds();
  const int64_t hits0 = memo.hits() + memo.stale_hits();
  const int64_t misses0 = memo.misses();
  const int64_t inserts0 = memo.inserts();
  const int64_t stale0 = memo.stale_serves();

  OpenLoopLog log;
  SliceRunner runner(sim, kSlice);
  ClusterPeaks peaks;
  const Counters before = TakeCounters(rt, reactors);
  HostPhase phase;
  phase.Start();
  const SimTime start = sim.Now();
  KvFrontend* fe = &frontend;
  SpanLog* span_log = &spans;
  Simulator* simp = &sim;
  sim.Spawn(DriveOpenLoop(
                sim, schedule, start, kClientTick,
                [fe, span_log, simp](KvRequest req) -> Task<bool> {
                  const uint64_t span = span_log->Begin("request", simp->Now(), 0, req.id);
                  auto serve = fe->ServeDetailed(req.key, req.is_read);
                  const bool ok = co_await std::move(serve);
                  span_log->End(span, simp->Now());
                  co_return ok;
                },
                log),
            "open_loop");
  const bool drained = runner.RunUntilDone(
      [&] { return log.done == schedule.size(); }, [&] { peaks.Sample(cluster); },
      start + mix.duration + Duration::Seconds(10));
  const double timed_cpu_s = phase.Finish(runner, report);
  const Counters after = TakeCounters(rt, reactors);

  // --- Checks (the read-back is untimed).
  const int64_t offered = frontend.offered() - offered0;
  const int64_t in_slo = frontend.ok_in_slo() - in_slo0;
  const int64_t late = frontend.ok_late() - late0;
  const int64_t failed = frontend.failed() - failed0;
  report.Check("drained", drained, std::to_string(log.done) + " of " + std::to_string(ops));
  report.Check("offered_eq_schedule", offered == ops, std::to_string(offered));
  report.Check("offered_accounted", offered == in_slo + late + failed,
               std::to_string(in_slo) + "+" + std::to_string(late) + "+" + std::to_string(failed));
  int64_t ok = 0;
  int64_t ok_within_slo = 0;
  std::vector<int64_t> latency;
  latency.reserve(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (log.ok[i] == 1) {
      ++ok;
      ok_within_slo += log.latency_ns[i] <= kSlo.nanos() ? 1 : 0;
      latency.push_back(log.latency_ns[i]);
    } else {
      latency.push_back(INT64_MAX);  // a failed request misses every limit
    }
  }
  report.Check("acks_match_frontend", ok == in_slo + late,
               std::to_string(ok) + " acked by the runner");
  const int64_t max_late =
      log.send_late_ns.empty() ? 0
                                : *std::max_element(log.send_late_ns.begin(), log.send_late_ns.end());
  report.Check("sent_within_tick", max_late >= 0 && max_late < kClientTick.nanos(),
               std::to_string(max_late) + " ns late at most");
  // Every key was written at preload, so after the splits, merges and
  // migrations of the timed phase each key must still be present, with its
  // written value, in the shard that owns its hash. KvFrontend writes one
  // fixed value per key, so this cannot tell the last acked write from the
  // preload: it checks that no key was lost or misplaced by a reshape.
  int64_t bad_keys = 0;
  for (uint64_t key = 0; key < kKvKeys; ++key) {
    const uint64_t hash = KvShardHash(key);
    bool found = false;
    for (const Ref<FencedKvProclet>& shard : frontend.shards()) {
      const FencedKvProclet* p = rt.UnsafeGet<FencedKvProclet>(shard.id());
      if (p == nullptr || hash < p->hash_begin() || hash >= p->hash_end()) {
        continue;
      }
      const Result<int64_t> got = p->Get(key);
      found = got.ok() && *got == WrittenValue(key);
    }
    bad_keys += found ? 0 : 1;
  }
  report.Check("readback_keys_in_owning_shard", bad_keys == 0,
               std::to_string(bad_keys) + " keys missing or wrong");

  // --- Model metrics.
  const double timed_sim_s = (after.at - start).seconds();
  const Tail op = TailOf(latency);
  report.Check("op_samples_cover_p99", op.pct >= 99.0, std::to_string(op.n) + " requests");
  report.Model("ok_frac", static_cast<double>(ok) / static_cast<double>(ops));
  report.Model("sim_goodput_ops_per_s", static_cast<double>(ok_within_slo) / timed_sim_s);
  report.Model("sim_op_p50_us", static_cast<double>(op.p50) / 1e3);
  report.Model("sim_op_p99_us", static_cast<double>(op.tail) / 1e3);
  report.Counts(ops, ops - ok);

  // --- Layers.
  ReportCommonLayers(before, after, rt, ops, timed_cpu_s, runner, peaks, report);
  report.Layer("serving.ok_late_frac", static_cast<double>(late) / static_cast<double>(ops));
  report.Layer("serving.retries", static_cast<double>(frontend.retries() - retries0));
  report.Layer("serving.moved_reroutes", static_cast<double>(frontend.moved_reroutes() - moved0));
  report.Layer("serving.memo_serves", static_cast<double>(frontend.memo_serves() - memo_serves0));
  const int64_t admits = admission.admits() - admits0;
  const int64_t sheds = admission.sheds() - sheds0;
  report.Layer("overload.admits", static_cast<double>(admits));
  report.Layer("overload.shed_frac",
               admits + sheds > 0 ? static_cast<double>(sheds) / static_cast<double>(admits + sheds)
                                  : 0.0);
  const int64_t hits = memo.hits() + memo.stale_hits() - hits0;
  const int64_t misses = memo.misses() - misses0;
  report.Layer("memo.hit_rate",
               hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                                 : 0.0);
  report.Layer("memo.misses", static_cast<double>(misses));
  report.Layer("memo.inserts", static_cast<double>(memo.inserts() - inserts0));
  report.Layer("memo.stale_serves", static_cast<double>(memo.stale_serves() - stale0));
  report.Layer("autoscale.splits", static_cast<double>(autoscaler.splits()));
  report.Layer("autoscale.merges", static_cast<double>(autoscaler.merges()));
  report.Layer("autoscale.migrations", static_cast<double>(autoscaler.migrations()));
  report.Layer("autoscale.deferred", static_cast<double>(autoscaler.deferred()));
  report.Layer("sched.rebalancer_migrations", 0.0);  // no GlobalRebalancer runs here

  ReportTrace(tracer.get(), spans, options, report);
}

}  // namespace perfbench

// Shared machinery of the benchmark runner: host clocks, the fixed-slice
// simulation runner, the percentile rule, the benchmark's own span log, the
// open-loop request schedule and the per-repetition report.
//
// The runner measures the simulator from outside. It only calls public
// functions of the simulator's modules and reads the counters they already
// expose; every layer number is a delta of such a counter across the timed
// phase, and every host number times a call the runner itself makes.

#ifndef PERFBENCH_RUNNER_HARNESS_H_
#define PERFBENCH_RUNNER_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "quicksand/runtime/runtime.h"
#include "quicksand/sched/local_reactor.h"
#include "quicksand/sim/simulator.h"
#include "quicksand/trace/trace.h"

namespace perfbench {

using quicksand::Duration;
using quicksand::SimTime;

// ---------------------------------------------------------------------------
// Percentile rule

// The highest percentile of {50, 90, 99, 99.9, 99.99} that leaves at least
// ten of `n` samples above it; 0 when even the median has fewer than ten
// samples above it (n < 20).
double TailPercentile(size_t n);

// Nearest-rank percentile (p in (0, 100]) of `samples`; 0 when empty.
int64_t PercentileOf(std::vector<int64_t> samples, double p);

// A tail summary taken by the rule above: the median and the value at
// min(99, TailPercentile(n)). `pct` is the percentile actually reported
// (0 when there are too few samples for any) and `n` the sample count.
struct Tail {
  int64_t p50 = 0;
  int64_t tail = 0;
  double pct = 0;
  size_t n = 0;
};
Tail TailOf(const std::vector<int64_t>& samples);

// ---------------------------------------------------------------------------
// Host clocks

double WallSeconds();          // steady clock
double ProcessCpuSeconds();    // user + sys of this process
int64_t ThreadCpuNanos();      // CLOCK_THREAD_CPUTIME_ID
double PeakRssMib();           // ru_maxrss of this process

// ---------------------------------------------------------------------------
// Fixed-slice runner

// Advances a simulation in fixed slices of simulated time, one
// Simulator::RunUntil call per slice, and records each call's thread-CPU
// time: the simulator's host cost per unit of simulated time. Between
// slices it samples the simulator's pending-event and live-fiber counts and
// calls `on_slice` (for the layer peaks the runner tracks).
class SliceRunner {
 public:
  SliceRunner(quicksand::Simulator& sim, Duration slice)
      : sim_(sim), slice_(slice) {}

  // Runs slices until `done()` holds at a slice boundary or simulated time
  // reaches `limit`. Returns done().
  template <typename Done, typename OnSlice>
  bool RunUntilDone(Done done, OnSlice on_slice, SimTime limit) {
    while (!done()) {
      if (sim_.Now() >= limit) {
        return false;
      }
      const int64_t t0 = ThreadCpuNanos();
      sim_.RunUntil(sim_.Now() + slice_);
      host_ns_.push_back(ThreadCpuNanos() - t0);
      Sample();
      on_slice();
    }
    return true;
  }

  const std::vector<int64_t>& host_ns() const { return host_ns_; }
  size_t peak_pending() const { return peak_pending_; }
  size_t peak_fibers() const { return peak_fibers_; }

 private:
  void Sample();

  quicksand::Simulator& sim_;
  Duration slice_;
  std::vector<int64_t> host_ns_;
  size_t peak_pending_ = 0;
  size_t peak_fibers_ = 0;
};

// ---------------------------------------------------------------------------
// Spans

// One span: an interval of simulated time with a name, the span that caused
// it and the operation (request id) it belongs to.
struct SpanRecord {
  const char* name = "";  // static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // operation id; 0 = none
};

// The benchmark's own spans, kept in memory for the traced run and written
// out at the end. Disabled logs record nothing, so untraced runs pay only a
// branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  // Opens a span that started at `start`; returns its id (0 when disabled).
  // `name` must be a static string.
  uint64_t Begin(const char* name, SimTime start, uint64_t parent,
                 uint64_t request);
  void End(uint64_t id, SimTime now);
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
};

// Self time of every span: its duration minus the part of it that its
// children (spans naming it as parent) cover. Returned in input order.
std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans);

// ---------------------------------------------------------------------------
// Open-loop schedule

struct KvRequest {
  uint64_t id = 0;     // 1-based position in the schedule
  int64_t due_ns = 0;  // simulated time the request is due to be sent
  uint64_t key = 0;
  bool is_read = true;
};

// Keys are drawn Zipf(kKvZipfS) over [0, kKvKeys).
constexpr uint64_t kKvKeys = 4096;
constexpr double kKvZipfS = 0.99;

struct KvMix {
  double qps = 20000;
  Duration duration = Duration::Seconds(1);
  double read_fraction = 0.98;
  // Flash crowd: inside [flash_start, flash_end) the rate is multiplied by
  // flash_multiplier and flash_key_fraction of arrivals go to a key drawn
  // uniformly from [0, flash_keys).
  Duration flash_start = Duration::Zero();
  Duration flash_end = Duration::Zero();
  double flash_multiplier = 1.0;
  double flash_key_fraction = 0.0;
  uint64_t flash_keys = 0;
};

// Poisson arrivals (thinned for the flash window) with Zipf keys, due times
// relative to the start of the timed phase. The seed drives this and
// nothing else: the same (mix, seed) gives the same schedule.
std::vector<KvRequest> GenerateKvSchedule(const KvMix& mix, uint64_t seed);

// Mixes the user's seed into the seed of one input stream, so distinct
// streams of one run never share a generator state.
uint64_t InputSeed(uint64_t seed, uint64_t stream);

// Open-loop latency: from when the request was due, not from when it was
// sent, so a stall that delays sending still counts against the request.
inline int64_t OpenLoopLatencyNs(int64_t due_ns, int64_t done_ns) {
  return done_ns - due_ns;
}

// Drives `schedule` open loop, the way a load generator with a timer of
// granularity `tick` does: a walker fiber wakes at each tick boundary
// (relative to `start`) and spawns `serve(request)` for every request due by
// then, each on its own fiber, never waiting for one. A request is timed
// from its due time, so the wait for the tick counts against it. `serve`
// returns Task<bool> (true = ok); outcome, open-loop latency and send
// lateness land in the log, indexed like the schedule.
struct OpenLoopLog {
  std::vector<int64_t> latency_ns;
  std::vector<int8_t> ok;  // -1 = still in flight
  std::vector<int64_t> send_late_ns;
  size_t done = 0;
};

template <typename Serve>
quicksand::Task<> ServeOpenLoop(quicksand::Simulator& sim, OpenLoopLog& log,
                                Serve serve, size_t i, int64_t due,
                                KvRequest req) {
  auto call = serve(req);
  const bool ok = co_await std::move(call);
  log.latency_ns[i] = OpenLoopLatencyNs(due, sim.Now().nanos());
  log.ok[i] = ok ? 1 : 0;
  ++log.done;
}

template <typename Serve>
quicksand::Task<> DriveOpenLoop(quicksand::Simulator& sim,
                                const std::vector<KvRequest>& schedule,
                                SimTime start, Duration tick, Serve serve,
                                OpenLoopLog& log) {
  log.latency_ns.assign(schedule.size(), 0);
  log.ok.assign(schedule.size(), -1);
  log.send_late_ns.assign(schedule.size(), 0);
  log.done = 0;
  const int64_t tick_ns = tick.nanos();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const int64_t due = start.nanos() + schedule[i].due_ns;
    const int64_t send_at =
        start.nanos() + (schedule[i].due_ns + tick_ns - 1) / tick_ns * tick_ns;
    co_await sim.SleepUntil(SimTime::FromNanos(send_at));
    log.send_late_ns[i] = sim.Now().nanos() - due;
    sim.Spawn(ServeOpenLoop(sim, log, serve, i, due, schedule[i]));
  }
}

// ---------------------------------------------------------------------------
// Report

// One repetition's results, printed by the runner as one JSON object:
//   host   — host-time measurements (wall, CPU, RSS, slice latencies, and
//            the per-layer host cost per event),
//   model  — deterministic outputs of the modelled system,
//   layers — per-layer counter deltas and derived ratios,
//   checks — named output checks; any failure fails the run.
class Report {
 public:
  void Host(const std::string& name, double value);
  void Model(const std::string& name, double value);
  void Layer(const std::string& name, double value);
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  void Counts(int64_t attempted, int64_t failed);

  bool all_ok() const;
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
  };
  std::vector<Entry> host_, model_, layers_;
  struct CheckEntry {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<CheckEntry> checks_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// The runner's command-line options.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  // Non-empty: traced run. The simulator's tracer is attached, the span log
  // is on, and all spans are written to this path at the end.
  std::string trace_out;
  bool traced() const { return !trace_out.empty(); }
};

// For the traced run: a tracer attached to `rt` (nullptr otherwise). It is
// attached after setup, so it records the timed phase only.
std::unique_ptr<quicksand::Tracer> AttachTracer(const Options& options,
                                                quicksand::Runtime& rt);

// For the traced run (no-op when `tracer` is null): merges the span log with
// the tracer's retained spans, writes them to options.trace_out as CSV
// (name,start_ns,end_ns,id,parent,request) and reports the trace layer:
// span count, dropped tracer events and, for every span name present, the
// p50/p99 self time.
void ReportTrace(const quicksand::Tracer* tracer, const SpanLog& spans,
                 const Options& options, Report& report);

// Records the timed-phase host measurements shared by all workloads.
struct HostPhase {
  double wall0 = 0;
  double cpu0 = 0;
  void Start() {
    wall0 = WallSeconds();
    cpu0 = ProcessCpuSeconds();
  }
  // Reports wall_s, cpu_s, peak RSS and the slice latencies; returns cpu_s.
  double Finish(const SliceRunner& runner, Report& report) const;
};

// ---------------------------------------------------------------------------
// Layers shared by every workload

// Counters read before and after the timed phase; the layer metrics are
// their deltas.
struct Counters {
  int64_t events = 0;
  int64_t reactor_cpu_evictions = 0;
  int64_t reactor_mem_evictions = 0;
  quicksand::RuntimeStats rt;
  int64_t net_bytes = 0;
  int64_t net_messages = 0;
  std::vector<int64_t> busy_ns;  // per machine
  SimTime at;
};
Counters TakeCounters(
    quicksand::Runtime& rt,
    const std::vector<std::unique_ptr<quicksand::LocalReactor>>& reactors);

// Peak runnable CPU requests over machines, sampled at slice boundaries.
struct ClusterPeaks {
  int64_t runnable = 0;
  void Sample(const quicksand::Cluster& cluster);
};

// Reports the sim, cluster, net and runtime layers and the reactors. `ops`
// is the number of operations the workload attempted; `timed_cpu_s` the
// timed phase's host CPU seconds.
void ReportCommonLayers(const Counters& before, const Counters& after,
                        quicksand::Runtime& rt, int64_t ops,
                        double timed_cpu_s, const SliceRunner& runner,
                        const ClusterPeaks& peaks, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_HARNESS_H_

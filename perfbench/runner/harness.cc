#include "runner/harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>

#include "quicksand/cluster/cluster.h"
#include "quicksand/common/random.h"
#include "quicksand/trace/query.h"

namespace perfbench {

// --- Percentile rule ---------------------------------------------------------

double TailPercentile(size_t n) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (double p : kLadder) {
    // Samples strictly above the nearest-rank p-th percentile.
    const double above = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (above >= 10.0 - 1e-9) {
      return p;
    }
  }
  return 0.0;
}

int64_t PercentileOf(std::vector<int64_t> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

Tail TailOf(const std::vector<int64_t>& samples) {
  Tail t;
  t.n = samples.size();
  t.pct = std::min(99.0, TailPercentile(t.n));
  if (t.pct > 0) {
    t.p50 = PercentileOf(samples, 50.0);
    t.tail = PercentileOf(samples, t.pct);
  }
  return t;
}

// --- Host clocks ---------------------------------------------------------------

double WallSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

int64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- SliceRunner ---------------------------------------------------------------

void SliceRunner::Sample() {
  peak_pending_ = std::max(peak_pending_, sim_.pending_event_count());
  peak_fibers_ = std::max(peak_fibers_, sim_.live_fiber_count());
}

// --- Spans -----------------------------------------------------------------------

uint64_t SpanLog::Begin(const char* name, SimTime now, uint64_t parent,
                        uint64_t request) {
  if (!enabled_) {
    return 0;
  }
  SpanRecord s;
  s.name = name;
  s.start_ns = now.nanos();
  s.end_ns = -1;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.request = request;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::End(uint64_t id, SimTime now) {
  if (!enabled_ || id == 0) {
    return;
  }
  spans_[id - 1].end_ns = now.nanos();
}

namespace {

// Tracer span ids live above every SpanLog id.
constexpr uint64_t kTracerIdBase = uint64_t{1} << 62;

// The simulator tracer's retained, ended spans as SpanRecords (names from
// TraceOpName).
std::vector<SpanRecord> TracerSpans(const quicksand::Tracer& tracer) {
  const quicksand::TraceQuery query = quicksand::TraceQuery::FromTracer(tracer);
  std::vector<SpanRecord> out;
  out.reserve(query.spans().size());
  for (const quicksand::TraceSpan& span : query.spans()) {
    if (!span.ended) {
      continue;
    }
    SpanRecord s;
    s.name = quicksand::TraceOpName(span.op);
    s.start_ns = span.begin.nanos();
    s.end_ns = span.end.nanos();
    s.id = kTracerIdBase + span.id;
    s.parent = span.parent == quicksand::kInvalidSpanId ? 0 : kTracerIdBase + span.parent;
    s.request = span.trace_id;
    out.push_back(std::move(s));
  }
  return out;
}

// Writes spans as CSV; false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "name,start_ns,end_ns,id,parent,request\n";
  for (const SpanRecord& s : spans) {
    out << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.id << ','
        << s.parent << ',' << s.request << '\n';
  }
  return static_cast<bool>(out.flush());
}

}  // namespace

std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
  }
  // Children intervals per parent, clipped to the parent's interval.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) {
      continue;
    }
    auto it = index.find(s.parent);
    if (it == index.end()) {
      continue;  // parent not retained
    }
    const SpanRecord& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) {
      children[it->second].emplace_back(lo, hi);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t reach = INT64_MIN;  // end of the union covered so far
    for (const auto& [lo, hi] : iv) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::unique_ptr<quicksand::Tracer> AttachTracer(const Options& options,
                                                quicksand::Runtime& rt) {
  if (!options.traced()) {
    return nullptr;
  }
  quicksand::TracerOptions topt;
  topt.ring_capacity = 1 << 17;  // events retained per machine
  auto tracer = std::make_unique<quicksand::Tracer>(rt.sim(), rt.cluster().size(), topt);
  rt.AttachTracer(tracer.get());
  return tracer;
}

void ReportTrace(const quicksand::Tracer* tracer, const SpanLog& log,
                 const Options& options, Report& report) {
  if (tracer == nullptr) {
    return;
  }
  std::vector<SpanRecord> spans = log.spans();
  const std::vector<SpanRecord> traced = TracerSpans(*tracer);
  spans.insert(spans.end(), traced.begin(), traced.end());
  int64_t tracer_dropped = 0;
  for (quicksand::MachineId m = 0; m < tracer->machines(); ++m) {
    tracer_dropped += tracer->dropped(m);
  }
  const std::string& path = options.trace_out;
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, std::vector<int64_t>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(self[i]);
  }
  report.Layer("trace.spans", static_cast<double>(spans.size()));
  report.Layer("trace.dropped_events", static_cast<double>(tracer_dropped));
  for (const auto& [name, samples] : by_name) {
    const Tail t = TailOf(samples);
    const std::string base = "trace.self_us." + name;
    report.Layer(base + ".p50", static_cast<double>(t.p50) / 1e3);
    report.Layer(base + ".p99", static_cast<double>(t.tail) / 1e3);
  }
  report.Check("trace_written", WriteSpans(path, spans), path);
}

uint64_t InputSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + stream * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- Open-loop schedule ----------------------------------------------------------

std::vector<KvRequest> GenerateKvSchedule(const KvMix& mix, uint64_t seed) {
  quicksand::Rng rng(seed);
  const bool has_flash = mix.flash_end > mix.flash_start;
  const double peak = mix.qps * (has_flash ? std::max(mix.flash_multiplier, 1.0) : 1.0);
  const double mean_gap_ns = 1e9 / peak;
  std::vector<KvRequest> out;
  out.reserve(static_cast<size_t>(mix.qps * mix.duration.seconds() * 1.2));
  double t = 0;
  for (;;) {
    t += rng.NextExponential(mean_gap_ns);
    const int64_t due = static_cast<int64_t>(std::llround(t));
    if (due >= mix.duration.nanos()) {
      break;
    }
    const bool in_flash =
        has_flash && due >= mix.flash_start.nanos() && due < mix.flash_end.nanos();
    const double rate = mix.qps * (in_flash ? mix.flash_multiplier : 1.0);
    if (rng.NextDouble() >= rate / peak) {
      continue;  // thinned
    }
    KvRequest req;
    req.id = out.size() + 1;
    req.due_ns = due;
    req.key = rng.NextZipf(kKvKeys, kKvZipfS);
    if (in_flash && mix.flash_keys > 0 && rng.NextBool(mix.flash_key_fraction)) {
      req.key = rng.NextBounded(mix.flash_keys);
    }
    req.is_read = rng.NextBool(mix.read_fraction);
    out.push_back(req);
  }
  return out;
}

// --- Report ------------------------------------------------------------------------

void Report::Host(const std::string& name, double value) {
  host_.push_back({name, value});
}
void Report::Model(const std::string& name, double value) {
  model_.push_back({name, value});
}
void Report::Layer(const std::string& name, double value) {
  layers_.push_back({name, value});
}
void Report::Check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, ok, detail});
}
void Report::Counts(int64_t attempted, int64_t failed) {
  attempted_ = attempted;
  failed_ = failed;
}

bool Report::all_ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const CheckEntry& c) { return c.ok; });
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::ToJson() const {
  std::ostringstream out;
  const auto section = [&out](const char* key, const std::vector<Entry>& entries) {
    out << Quote(key) << ":{";
    for (size_t i = 0; i < entries.size(); ++i) {
      out << (i ? "," : "") << Quote(entries[i].name) << ':' << Number(entries[i].value);
    }
    out << '}';
  };
  out << '{';
  section("host", host_);
  out << ',';
  section("model", model_);
  out << ',';
  section("layers", layers_);
  out << ",\"checks\":[";
  for (size_t i = 0; i < checks_.size(); ++i) {
    out << (i ? "," : "") << "{\"name\":" << Quote(checks_[i].name)
        << ",\"ok\":" << (checks_[i].ok ? "true" : "false")
        << ",\"detail\":" << Quote(checks_[i].detail) << '}';
  }
  out << "],\"attempted\":" << attempted_ << ",\"failed\":" << failed_ << '}';
  return out.str();
}

// --- Layers shared by every workload ----------------------------------------------

Counters TakeCounters(
    quicksand::Runtime& rt,
    const std::vector<std::unique_ptr<quicksand::LocalReactor>>& reactors) {
  Counters c;
  c.events = rt.sim().fired_event_count();
  for (const auto& reactor : reactors) {
    c.reactor_cpu_evictions += reactor->cpu_evictions();
    c.reactor_mem_evictions += reactor->memory_evictions();
  }
  c.rt = rt.stats();
  c.net_bytes = rt.fabric().total_bytes_sent();
  c.net_messages = rt.fabric().total_messages();
  for (quicksand::MachineId m = 0; m < rt.cluster().size(); ++m) {
    c.busy_ns.push_back(rt.cluster().machine(m).cpu().TotalBusy().nanos());
  }
  c.at = rt.sim().Now();
  return c;
}

void ClusterPeaks::Sample(const quicksand::Cluster& cluster) {
  for (quicksand::MachineId m = 0; m < cluster.size(); ++m) {
    runnable = std::max(runnable, cluster.machine(m).cpu().runnable_count());
  }
}

void ReportCommonLayers(const Counters& a, const Counters& b,
                        quicksand::Runtime& rt, int64_t ops,
                        double timed_cpu_s, const SliceRunner& runner,
                        const ClusterPeaks& peaks, Report& report) {
  const double per_op = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  const int64_t events = b.events - a.events;
  report.Layer("sim.events", static_cast<double>(events));
  report.Layer("sim.events_per_op", static_cast<double>(events) * per_op);
  report.Host("sim.host_ns_per_event",
              events > 0 ? timed_cpu_s * 1e9 / static_cast<double>(events) : 0.0);
  report.Layer("sim.peak_pending_events", static_cast<double>(runner.peak_pending()));
  report.Layer("sim.peak_live_fibers", static_cast<double>(runner.peak_fibers()));

  const quicksand::Cluster& cluster = rt.cluster();
  const double span_ns = static_cast<double>((b.at - a.at).nanos());
  double busy = 0;
  double capacity = 0;
  double peak_mem = 0;
  for (quicksand::MachineId m = 0; m < cluster.size(); ++m) {
    busy += static_cast<double>(b.busy_ns[m] - a.busy_ns[m]);
    capacity += span_ns * cluster.machine(m).spec().cores;
    const auto& mem = cluster.machine(m).memory();
    peak_mem = std::max(peak_mem, static_cast<double>(mem.high_watermark()) /
                                      static_cast<double>(mem.capacity()));
  }
  report.Layer("cluster.cpu_busy_frac", capacity > 0 ? busy / capacity : 0.0);
  report.Layer("cluster.peak_runnable", static_cast<double>(peaks.runnable));
  report.Layer("cluster.peak_mem_frac", peak_mem);

  // The workloads reach the network through runtime invocations (the
  // runtime's own request/response legs over the fabric), so the RPC
  // counters are the runtime's: a remote invocation is one call, a resent
  // response leg a retry, and an undelivered or unreachable invocation a
  // timeout.
  const quicksand::RuntimeStats& x = a.rt;
  const quicksand::RuntimeStats& y = b.rt;
  report.Layer("net.messages_per_op",
               static_cast<double>(b.net_messages - a.net_messages) * per_op);
  report.Layer("net.bytes_per_op", static_cast<double>(b.net_bytes - a.net_bytes) * per_op);
  report.Layer("net.rpc_calls",
               static_cast<double>(y.remote_invocations - x.remote_invocations));
  report.Layer("net.rpc_retries",
               static_cast<double>(y.response_retransmits - x.response_retransmits));
  report.Layer("net.rpc_timeouts",
               static_cast<double>((y.undelivered_invocations - x.undelivered_invocations) +
                                   (y.unreachable_invocations - x.unreachable_invocations)));

  report.Layer("runtime.local_invocations",
               static_cast<double>(y.local_invocations - x.local_invocations));
  report.Layer("runtime.remote_invocations",
               static_cast<double>(y.remote_invocations - x.remote_invocations));
  report.Layer("runtime.directory_lookups",
               static_cast<double>(y.directory_lookups - x.directory_lookups));
  report.Layer("runtime.bounces", static_cast<double>(y.bounces - x.bounces));
  report.Layer("runtime.migrations", static_cast<double>(y.migrations - x.migrations));
  report.Layer("runtime.failed_migrations",
               static_cast<double>(y.failed_migrations - x.failed_migrations));
  report.Layer("sched.reactor_cpu_evictions",
               static_cast<double>(b.reactor_cpu_evictions - a.reactor_cpu_evictions));
  report.Layer("sched.reactor_mem_evictions",
               static_cast<double>(b.reactor_mem_evictions - a.reactor_mem_evictions));
  // Histograms cannot be subtracted: these cover the whole process.
  const auto pct_us = [](const quicksand::LatencyHistogram& h, double want) {
    const double p = std::min(want, TailPercentile(static_cast<size_t>(h.count())));
    return p > 0 ? static_cast<double>(h.Percentile(p).nanos()) / 1e3 : 0.0;
  };
  report.Layer("runtime.migration_p50_us", pct_us(y.migration_latency, 50));
  const double migration_p99_us = pct_us(y.migration_latency, 99);
  report.Layer("runtime.migration_p99_us", migration_p99_us);
  // Reference error: the paper claims migration completes in under 1 ms
  // (Fig. 1); below 1 holds the claim.
  report.Layer("runtime.migration_p99_over_paper", migration_p99_us / 1000.0);
  report.Layer("runtime.remote_invoke_p99_us", pct_us(y.remote_invoke_latency, 99));
}

// --- HostPhase ------------------------------------------------------------------------

double HostPhase::Finish(const SliceRunner& runner, Report& report) const {
  const double wall_s = WallSeconds() - wall0;
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  report.Host("wall_s", wall_s);
  report.Host("cpu_s", cpu_s);
  report.Host("peak_rss_mib", PeakRssMib());
  const Tail slices = TailOf(runner.host_ns());
  report.Host("host_slice_p50_us", static_cast<double>(slices.p50) / 1e3);
  report.Host("host_slice_p99_us", static_cast<double>(slices.tail) / 1e3);
  report.Layer("sim.slices", static_cast<double>(slices.n));
  report.Check("slice_samples_cover_p99", slices.pct >= 99.0,
               std::to_string(slices.n) + " slices");
  return cpu_s;
}

}  // namespace perfbench

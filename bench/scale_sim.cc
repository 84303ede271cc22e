// scale_sim: event-core throughput at cluster scale.
//
// Every experiment in this repo rides on the discrete-event core, so its
// throughput bounds how large a cluster (machines x proclets) and how long a
// simulated horizon any bench can afford. This bench drives the core with the
// mix that dominates real runs — zero-delay yields (the now lane), short
// timed sleeps, armed-then-cancelled timeouts (the RPC-timeout pattern), and
// mutex park/wake — across a sweep of machine count x proclet count up to
// 1000 machines / 1M proclets, and reports events/sec plus
// sim-seconds-per-wall-second. A raw schedule/cancel/fire row isolates the
// event queue itself from coroutine overhead.
//
// The full run writes results/BENCH_scale.json, one row per cell with its
// model columns only (events, simulated seconds, digest), so the record is
// reproducible byte for byte; the host-timed columns (wall ms, events/sec,
// sim-seconds per wall-second) are printed, never recorded.
//
// --smoke: fixed small sweep, two same-seed runs must produce identical
// digests (the determinism gate), and events/sec must clear a deliberately
// generous floor so CI noise cannot flake it.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "quicksand/sim/simulator.h"
#include "quicksand/sim/sync.h"

namespace quicksand {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xff)) * kFnvPrime;
    v >>= 8;
  }
  return h;
}

// splitmix64: cheap, seedable, deterministic across platforms.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

struct Counters {
  int64_t events = 0;        // resumptions observed by the workload fibers
  int64_t timeouts_fired = 0;
  uint64_t digest = kFnvOffset;  // order-sensitive: hashes the interleaving
};

struct MachineCtx {
  explicit MachineCtx(Simulator& sim) : mu(sim) {}
  Mutex mu;
  int64_t acquisitions = 0;
};

// One simulated proclet: the await mix of a serving/compute fiber. Yields
// dominate (as they do in the real runtime: Spawn, Yield, and WakeJoiners all
// schedule at zero delay), sleeps exercise the timed tier, and the
// armed-then-cancelled timeout is the RPC pattern that stresses Cancel.
Task<> ProcletLoop(Simulator& sim, MachineCtx& m, WaitGroup& wg,
                   uint64_t fiber_seed, int iters, Counters& c) {
  Rng rng{fiber_seed};
  for (int i = 0; i < iters; ++i) {
    co_await sim.Yield();
    ++c.events;
    co_await sim.Yield();
    ++c.events;
    const EventId timeout =
        sim.Schedule(Duration::Millis(1), [&c] { ++c.timeouts_fired; });
    co_await sim.Sleep(Duration::Micros(1 + static_cast<int64_t>(rng.Next() % 197)));
    ++c.events;
    sim.Cancel(timeout);
    if ((i & 3) == 0) {
      co_await m.mu.Lock();
      ++c.events;
      ++m.acquisitions;
      co_await sim.Yield();
      ++c.events;
      m.mu.Unlock();
    }
    c.digest = Fnv(c.digest, (fiber_seed << 20) ^
                                 static_cast<uint64_t>(sim.Now().nanos()));
  }
  wg.Done();
}

struct CellResult {
  int machines = 0;
  int64_t proclets = 0;
  int64_t events = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  double sim_seconds = 0.0;
  double sim_per_wall = 0.0;
  uint64_t digest = 0;
  std::string label;
};

CellResult RunCell(int machines, int64_t proclets, int iters, uint64_t seed) {
  Simulator sim;
  Counters c;
  WaitGroup wg(sim);
  std::vector<std::unique_ptr<MachineCtx>> ms;
  ms.reserve(static_cast<size_t>(machines));
  for (int i = 0; i < machines; ++i) {
    ms.push_back(std::make_unique<MachineCtx>(sim));
  }
  const auto start = std::chrono::steady_clock::now();
  wg.Add(proclets);
  for (int64_t p = 0; p < proclets; ++p) {
    MachineCtx& m = *ms[static_cast<size_t>(p % machines)];
    sim.Spawn(ProcletLoop(sim, m, wg, seed ^ static_cast<uint64_t>(p), iters, c));
    ++c.events;  // the spawn event itself
  }
  sim.BlockOn(wg.Wait());
  const auto end = std::chrono::steady_clock::now();

  CellResult r;
  r.machines = machines;
  r.proclets = proclets;
  r.events = c.events;
  r.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          end - start)
          .count();
  r.events_per_sec = r.wall_ms > 0.0 ? 1e3 * static_cast<double>(c.events) / r.wall_ms : 0.0;
  r.sim_seconds = sim.Now().seconds();
  r.sim_per_wall = r.wall_ms > 0.0 ? r.sim_seconds / (r.wall_ms / 1e3) : 0.0;
  // Fold the machine-level tallies in so lock fairness is part of the gate.
  uint64_t digest = c.digest;
  for (const auto& m : ms) {
    digest = Fnv(digest, static_cast<uint64_t>(m->acquisitions));
  }
  digest = Fnv(digest, static_cast<uint64_t>(sim.Now().nanos()));
  digest = Fnv(digest, static_cast<uint64_t>(c.timeouts_fired));
  r.digest = digest;
  char label[64];
  std::snprintf(label, sizeof(label), "fibers_%dx%lld", machines,
                static_cast<long long>(proclets));
  r.label = label;
  return r;
}

// Raw event-queue row: no coroutines, just schedule/cancel/fire churn. This
// isolates the queue's slot + ordering machinery from fiber frame costs.
CellResult RunRawEvents(int64_t count, uint64_t seed) {
  Simulator sim;
  Rng rng{seed};
  int64_t fired = 0;
  uint64_t digest = kFnvOffset;
  const auto start = std::chrono::steady_clock::now();
  std::vector<EventId> armed;
  armed.reserve(64);
  // Schedule in bursts from inside the event loop so cancellation hits both
  // pending-soon and pending-late events, as RPC timeouts do.
  constexpr int kBurst = 64;
  const int64_t bursts = count / kBurst;
  for (int64_t b = 0; b < bursts; ++b) {
    for (int i = 0; i < kBurst; ++i) {
      const Duration delay = (i & 1) == 0
                                 ? Duration::Zero()
                                 : Duration::Micros(1 + static_cast<int64_t>(
                                                           rng.Next() % 97));
      const EventId id = sim.Schedule(delay, [&fired] { ++fired; });
      if ((i & 7) == 3) {
        armed.push_back(id);  // every 8th is a timeout that will not fire
      }
    }
    for (const EventId id : armed) {
      sim.Cancel(id);
    }
    armed.clear();
    sim.RunUntilIdle();
    digest = Fnv(digest, static_cast<uint64_t>(fired));
    digest = Fnv(digest, static_cast<uint64_t>(sim.Now().nanos()));
  }
  const auto end = std::chrono::steady_clock::now();

  CellResult r;
  r.machines = 0;
  r.proclets = 0;
  r.events = fired;
  r.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          end - start)
          .count();
  r.events_per_sec = r.wall_ms > 0.0 ? 1e3 * static_cast<double>(fired) / r.wall_ms : 0.0;
  r.sim_seconds = sim.Now().seconds();
  r.sim_per_wall = r.wall_ms > 0.0 ? r.sim_seconds / (r.wall_ms / 1e3) : 0.0;
  r.digest = digest;
  r.label = "raw_events";
  return r;
}

// Timeout-churn row: the RPC-timeout lifecycle at open-loop rate. Every RPC
// arms a guard timer far in the future (10ms) and cancels it a few µs later
// when the reply lands, so almost no timer ever fires — the queue's job is to
// absorb arm/cancel churn while holding a large population of doomed entries.
// This is the pattern that separates eager cancellation (slot freed at Cancel,
// 24-byte tombstone skipped on pop) from lazy deletion that retains the full
// callback until its deadline. Throughput counts operations (arm + cancel +
// fire), since fires are rare by construction.
CellResult RunTimeoutChurn(int64_t ops, uint64_t seed) {
  Simulator sim;
  Rng rng{seed};
  int64_t fired = 0;
  int64_t counted_ops = 0;
  uint64_t digest = kFnvOffset;
  constexpr int kBurst = 64;
  // Two bursts stay in flight: cancel the batch armed two rounds ago, so
  // every timer lives ~20µs of sim time against a 10ms deadline.
  std::vector<EventId> prev;
  std::vector<EventId> cur;
  prev.reserve(kBurst);
  cur.reserve(kBurst);
  const auto start = std::chrono::steady_clock::now();
  while (counted_ops < ops) {
    for (int i = 0; i < kBurst; ++i) {
      const Duration guard =
          Duration::Micros(10'000 + static_cast<int64_t>(rng.Next() % 500));
      cur.push_back(sim.Schedule(guard, [&fired] { ++fired; }));
    }
    counted_ops += kBurst;
    for (const EventId id : prev) {
      sim.Cancel(id);
    }
    counted_ops += static_cast<int64_t>(prev.size());
    prev.swap(cur);
    cur.clear();
    sim.RunFor(Duration::Micros(10));
    digest = Fnv(digest, static_cast<uint64_t>(fired));
    digest = Fnv(digest, static_cast<uint64_t>(sim.Now().nanos()));
  }
  // Let the tail drain so the digest covers the stragglers that do fire.
  sim.RunUntilIdle();
  counted_ops += fired;
  digest = Fnv(digest, static_cast<uint64_t>(fired));
  const auto end = std::chrono::steady_clock::now();

  CellResult r;
  r.machines = 0;
  r.proclets = 0;
  r.events = counted_ops;
  r.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          end - start)
          .count();
  r.events_per_sec =
      r.wall_ms > 0.0 ? 1e3 * static_cast<double>(counted_ops) / r.wall_ms : 0.0;
  r.sim_seconds = sim.Now().seconds();
  r.sim_per_wall = r.wall_ms > 0.0 ? r.sim_seconds / (r.wall_ms / 1e3) : 0.0;
  r.digest = digest;
  r.label = "timeout_churn";
  return r;
}

void PrintRow(const CellResult& r) {
  std::printf("%20s | %10lld ev | %9.1f ms | %10.0f ev/s | %8.3f sim-s | %7.2f sim-s/wall-s | digest %016llx\n",
              r.label.c_str(), static_cast<long long>(r.events), r.wall_ms,
              r.events_per_sec, r.sim_seconds, r.sim_per_wall,
              static_cast<unsigned long long>(r.digest));
}

void WriteJson(const std::vector<CellResult>& rows) {
  BenchJson json;
  for (const CellResult& r : rows) {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(r.digest));
    json.AddRow()
        .Str("scenario", r.label)
        .Int("machines", r.machines)
        .Int("proclets", r.proclets)
        .Int("events", r.events)
        .Num("sim_seconds", r.sim_seconds)
        .Str("digest", digest);
  }
  json.WriteFile("results/BENCH_scale.json");
}

// The floor is far below what even an unoptimized core sustains on slow CI
// hardware: the gate exists to catch order-of-magnitude regressions (an
// accidental O(n) scan per event), not few-percent noise.
constexpr double kSmokeEventsPerSecFloor = 100e3;

int Smoke() {
  std::vector<CellResult> first;
  std::vector<CellResult> second;
  for (int run = 0; run < 2; ++run) {
    std::vector<CellResult>& out = run == 0 ? first : second;
    out.push_back(RunCell(8, 512, 40, 1));
    out.push_back(RunCell(64, 4096, 10, 1));
    out.push_back(RunRawEvents(1 << 18, 1));
    out.push_back(RunTimeoutChurn(1 << 16, 1));
  }
  std::printf("scale_sim smoke:\n");
  for (const CellResult& r : first) {
    PrintRow(r);
  }
  for (size_t i = 0; i < first.size(); ++i) {
    if (first[i].digest != second[i].digest) {
      std::printf("scale_sim smoke: FAIL — same-seed digests diverged for %s "
                  "(%016llx vs %016llx)\n",
                  first[i].label.c_str(),
                  static_cast<unsigned long long>(first[i].digest),
                  static_cast<unsigned long long>(second[i].digest));
      return 1;
    }
  }
  for (const CellResult& r : first) {
    if (r.events_per_sec < kSmokeEventsPerSecFloor) {
      std::printf("scale_sim smoke: FAIL — %s ran at %.0f ev/s, below the "
                  "%.0f ev/s floor\n",
                  r.label.c_str(), r.events_per_sec, kSmokeEventsPerSecFloor);
      return 1;
    }
  }
  std::printf("scale_sim smoke: PASS (deterministic, above the throughput "
              "floor)\n");
  return 0;
}

void Main() {
  std::printf("=== scale_sim: event-core throughput, machines x proclets ===\n");
  std::vector<CellResult> rows;
  rows.push_back(RunRawEvents(4 << 20, 1));
  PrintRow(rows.back());
  rows.push_back(RunTimeoutChurn(4 << 20, 1));
  PrintRow(rows.back());
  struct Cell {
    int machines;
    int64_t proclets;
    int iters;
  };
  // Iterations shrink as the fleet grows so every cell stays a few seconds;
  // the 1000-machine / 1M-proclet cell is the routine-scale target.
  const Cell cells[] = {
      {8, 1'000, 800},
      {64, 10'000, 80},
      {256, 100'000, 16},
      {1000, 1'000'000, 3},
  };
  for (const Cell& cell : cells) {
    rows.push_back(RunCell(cell.machines, cell.proclets, cell.iters, 1));
    PrintRow(rows.back());
  }
  WriteJson(rows);
}

}  // namespace
}  // namespace quicksand

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return quicksand::Smoke();
  }
  quicksand::Main();
  return 0;
}

// Ablation A6: emergency evacuation vs. revocation warning time.
//
// Quicksand harvests resources that can be revoked on very short notice
// (§2: "resources may only be idle for a few milliseconds"). This bench
// sweeps the warning window a revocation notice grants and reports what
// fraction of the dying machine's proclets the emergency evacuator saves,
// plus how long the evacuation ran. The knee of the curve is the shortest
// notice the provider must give for Quicksand to be loss-free.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "quicksand/cluster/fault_injector.h"
#include "quicksand/common/bytes.h"
#include "quicksand/proclet/memory_proclet.h"
#include "quicksand/sched/evacuator.h"
#include "quicksand/trace/bench_trace.h"

namespace quicksand {
namespace {

BenchTrace* g_trace = nullptr;

struct Measured {
  int64_t considered = 0;
  int64_t evacuated = 0;
  Duration elapsed = Duration::Zero();
};

Measured RunOne(Duration warning, int proclets, int64_t heap_each) {
  Simulator sim;
  Cluster cluster(sim);
  for (int i = 0; i < 4; ++i) {
    MachineSpec spec;
    spec.memory_bytes = 4 * kGiB;
    cluster.AddMachine(spec);
  }
  Runtime rt(sim, cluster);
  (void)AttachBenchTracer(g_trace, rt, "warning_" + warning.ToString());
  FaultInjector faults(sim, cluster);
  rt.AttachFaultInjector(faults);
  EmergencyEvacuator evacuator(rt);
  evacuator.Arm(faults);

  // Victim population on machine 1; machines 0, 2, 3 are refuge space.
  for (int i = 0; i < proclets; ++i) {
    PlacementRequest req;
    req.heap_bytes = heap_each;
    req.pinned = MachineId{1};
    (void)*sim.BlockOn(rt.Create<MemoryProclet>(rt.CtxOn(0), req));
  }

  faults.ScheduleRevocation(sim.Now() + Duration::Millis(1), 1, warning);
  sim.RunUntilIdle();

  Measured m;
  if (!evacuator.reports().empty()) {
    m.considered = evacuator.reports().front().considered;
    m.evacuated = evacuator.reports().front().evacuated;
    m.elapsed = evacuator.reports().front().elapsed;
  }
  return m;
}

void Main() {
  constexpr int kProclets = 16;
  constexpr int64_t kHeapEach = 4 * kMiB;

  std::printf("=== A6: survived fraction vs revocation warning ===\n");
  std::printf("(%d proclets x %lld MiB on the revoked machine)\n\n", kProclets,
              static_cast<long long>(kHeapEach / kMiB));
  std::printf("%10s | %9s %10s | %12s\n", "warning", "survived", "fraction",
              "evac time");
  const std::vector<Duration> warnings = {
      Duration::Micros(200), Duration::Micros(500), Duration::Millis(1),
      Duration::Millis(2),   Duration::Millis(5),   Duration::Millis(10),
  };
  BenchJson json;
  for (const Duration warning : warnings) {
    const Measured m = RunOne(warning, kProclets, kHeapEach);
    const double fraction =
        m.considered == 0 ? 0.0
                          : static_cast<double>(m.evacuated) /
                                static_cast<double>(m.considered);
    std::printf("%10s | %3lld / %-3lld %9.0f%% | %12s\n",
                warning.ToString().c_str(), static_cast<long long>(m.evacuated),
                static_cast<long long>(m.considered), fraction * 100.0,
                m.elapsed.ToString().c_str());
    json.AddRow()
        .Int("warning_us", warning.nanos() / 1000)
        .Int("considered", m.considered)
        .Int("evacuated", m.evacuated)
        .Num("survived_fraction", fraction)
        .Int("evac_time_us", m.elapsed.nanos() / 1000);
  }
  std::printf("\nEvacuation drains storage > memory > compute, smallest "
              "first; whatever is still in flight at the deadline dies with "
              "the machine.\n");
  json.WriteFile("results/BENCH_ab6.json");
}

}  // namespace
}  // namespace quicksand

int main(int argc, char** argv) {
  quicksand::BenchTrace trace = quicksand::BenchTrace::FromArgs(argc, argv);
  quicksand::g_trace = &trace;
  quicksand::Main();
  return 0;
}

// Ablation A8: partitions, gray failure, and the detection-timeout trade.
//
// The failure detector turns heartbeat silence into declarations of death,
// and the confirm timeout is the knob: confirm too fast and a transient
// partition gets a healthy machine declared dead (a needless failover);
// confirm too slow and a real gray failure stalls writers for the whole
// window. This bench sweeps confirm_after against
//
//  * a transient one-way partition that heals before (or after!) the
//    confirm deadline — reporting false suspicions, needless declarations,
//    and writer completion time,
//  * a permanent gray failure (the host stays up but unreachable) —
//    reporting detection latency, time-to-recover (partition onset to
//    backup promoted), and the fencing/dedup counters that prove the
//    failover was exactly-once,
//  * per-link packet loss with no partition at all — reporting the
//    retransmit/unreachable pressure and the false-suspicion rate pure
//    loss induces.
//
// Writers are at-least-once clients (stable request id per logical write,
// epoch re-resolved per attempt); every scenario verifies no acked write
// was lost or double-applied.
//
// --smoke runs the gray-failure scenario twice at the default timeout and
// exits nonzero if the same-seed runs diverge or any write is lost or
// duplicated, so CI catches nondeterminism in the partition path. The full
// run writes results/BENCH_ab8.json and, from its gray-failure run at the
// same timeout, m1's postmortem in results/ab8_postmortem_m1.txt.

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "quicksand/cluster/fault_injector.h"
#include "quicksand/common/bytes.h"
#include "quicksand/durability/recovery_coordinator.h"
#include "quicksand/durability/replication.h"
#include "quicksand/health/failure_detector.h"
#include "quicksand/proclet/fenced_kv_proclet.h"
#include "quicksand/trace/bench_trace.h"
#include "quicksand/trace/flight_recorder.h"

namespace quicksand {
namespace {

enum class Scenario { kTransient, kGray, kLoss };

constexpr int kMachines = 4;
constexpr int kWrites = 16;
constexpr Duration kOutage = Duration::Millis(6);  // transient partition
constexpr Duration kGrayWindow = Duration::Millis(40);

struct RunResult {
  Duration detect = Duration::Zero();   // partition onset -> confirmation
  Duration recover = Duration::Zero();  // partition onset -> backup promoted
  Duration writer_time = Duration::Zero();
  int64_t suspicions = 0;
  int64_t false_suspicions = 0;
  int64_t confirmations = 0;
  int64_t declared_dead = 0;
  int64_t promotions = 0;
  int64_t fenced_rpcs = 0;
  int64_t duplicates = 0;  // retries answered from the dedup set
  int64_t retransmits = 0;
  int64_t unreachable = 0;
  int64_t dropped = 0;
  int64_t acked = 0;
  int64_t failed = 0;
  int64_t wrong = 0;  // lost or double-applied acked writes
  std::string digest;
};

Task<FencedKvProclet::PutResult> RawPut(Ref<FencedKvProclet> kv, Ctx ctx,
                                        uint64_t epoch, uint64_t rid,
                                        uint64_t key, int64_t value) {
  auto call = kv.Call(
      ctx, [epoch, rid, key, value](FencedKvProclet& p)
      -> Task<FencedKvProclet::PutResult> {
        co_return p.Put(epoch, rid, key, value);
      });
  co_return co_await std::move(call);
}

Task<bool> AckedPut(Ref<FencedKvProclet> kv, Runtime& rt, uint64_t rid,
                    uint64_t key, int64_t value) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const uint64_t epoch = rt.EpochOf(kv.id());
    if (epoch == 0) {
      co_await rt.sim().Sleep(Duration::Micros(500));
      continue;
    }
    bool lost = false;  // co_await is not allowed inside a catch handler
    try {
      FencedKvProclet::PutResult result =
          co_await RawPut(kv, rt.CtxOn(0), epoch, rid, key, value);
      if (result.applied || result.duplicate) {
        co_return true;
      }
    } catch (const ProcletUnreachableError&) {
    } catch (const ProcletLostError&) {
      lost = true;
    }
    if (lost) {
      (void)co_await rt.AwaitRestore(kv.id(), Duration::Millis(50));
    }
    co_await rt.sim().Sleep(Duration::Micros(500));
  }
  co_return false;
}

Task<> Writer(Ref<FencedKvProclet> kv, Runtime& rt, int64_t& acked,
              int64_t& failed, SimTime& done) {
  for (int i = 0; i < kWrites; ++i) {
    const uint64_t key = static_cast<uint64_t>(i);
    if (co_await AckedPut(kv, rt, 100 + key, key,
                          static_cast<int64_t>(key) * 5 + 1)) {
      ++acked;
    } else {
      ++failed;
    }
    co_await rt.sim().Sleep(Duration::Millis(1));
  }
  done = rt.sim().Now();
}

RunResult RunOne(Scenario scenario, Duration confirm_after, double loss,
                 BenchTrace* trace, const std::string& label,
                 const char* postmortem_path = nullptr) {
  Simulator sim;
  Cluster cluster(sim);
  for (int i = 0; i < kMachines; ++i) {
    MachineSpec spec;
    spec.cores = 4;
    spec.memory_bytes = 2 * kGiB;
    cluster.AddMachine(spec);
  }
  Runtime rt(sim, cluster);
  // This bench traces unconditionally: the trace digest is part of the run
  // digest (the determinism gate covers the tracer itself), and the flight
  // recorder needs a ring to freeze when the primary is declared dead. When
  // --trace is given the events also land in the exported JSON.
  Tracer local_tracer(sim, cluster.size());
  Tracer* tracer = AttachBenchTracer(trace, rt, label);
  if (tracer == nullptr) {
    tracer = &local_tracer;
    rt.AttachTracer(tracer);
  }
  FlightRecorder recorder(*tracer, /*last_n=*/1000);
  rt.AttachFlightRecorder(&recorder);
  FaultInjector faults(sim, cluster);
  rt.AttachFaultInjector(faults);

  FailureDetectorOptions dopt;
  dopt.controller = 0;
  dopt.heartbeat_period = Duration::Micros(500);
  dopt.suspect_after = Duration::Millis(2);
  dopt.confirm_after = confirm_after;
  dopt.check_period = Duration::Micros(250);
  FailureDetector detector(sim, cluster, dopt);

  ReplicationManager replication(rt);
  RecoveryCoordinator recovery(rt);
  recovery.AttachReplication(&replication);

  SimTime confirmed_at = SimTime::Zero();
  detector.OnConfirm([&confirmed_at, &sim](MachineId) {
    if (confirmed_at == SimTime::Zero()) {
      confirmed_at = sim.Now();
    }
  });
  rt.AttachFailureDetector(detector);
  replication.ArmDetector(detector);
  recovery.ArmDetector(detector);
  detector.Start();

  Ctx ctx = rt.CtxOn(0);
  PlacementRequest req;
  req.heap_bytes = 1_MiB;
  req.pinned = 1;
  Ref<FencedKvProclet> kv = *sim.BlockOn(rt.Create<FencedKvProclet>(ctx, req));
  (void)sim.BlockOn(replication.ReplicateAs<FencedKvProclet>(ctx, kv.id()));

  RunResult r;
  int64_t acked = 0, failed = 0;
  SimTime writer_done = SimTime::Zero();
  const SimTime writer_start = sim.Now();
  sim.Spawn(Writer(kv, rt, acked, failed, writer_done), "writer");

  const SimTime fault_at = sim.Now() + Duration::Millis(5);
  switch (scenario) {
    case Scenario::kTransient:
      faults.SchedulePartitionOneWay(fault_at, 1, 0, kOutage);
      faults.SchedulePartitionOneWay(fault_at, 1, 2, kOutage);
      faults.SchedulePartitionOneWay(fault_at, 1, 3, kOutage);
      break;
    case Scenario::kGray:
      faults.SchedulePartitionOneWay(fault_at, 1, 0, kGrayWindow);
      faults.SchedulePartitionOneWay(fault_at, 1, 2, kGrayWindow);
      faults.SchedulePartitionOneWay(fault_at, 1, 3, kGrayWindow);
      break;
    case Scenario::kLoss:
      for (MachineId a = 0; a < kMachines; ++a) {
        for (MachineId b = 0; b < kMachines; ++b) {
          if (a != b) {
            faults.ScheduleLinkLoss(fault_at, a, b, loss,
                                    Duration::Millis(120));
          }
        }
      }
      break;
  }

  sim.RunFor(Duration::Millis(200));
  detector.Stop();

  if (confirmed_at != SimTime::Zero()) {
    r.detect = confirmed_at - fault_at;
  }
  if (!recovery.reports().empty()) {
    const RecoveryReport& report = recovery.reports().front();
    r.recover = (report.started + report.elapsed) - fault_at;
  }
  r.writer_time =
      (writer_done == SimTime::Zero() ? sim.Now() : writer_done) - writer_start;
  r.suspicions = detector.suspicions();
  r.false_suspicions = detector.false_suspicions();
  r.confirmations = detector.confirmations();
  r.declared_dead = rt.stats().declared_dead;
  r.promotions = replication.promotions();
  r.fenced_rpcs = rt.stats().fenced_rpcs;
  r.retransmits = rt.stats().response_retransmits;
  r.unreachable = rt.stats().unreachable_invocations;
  r.dropped = cluster.fabric().dropped_transfers();
  r.acked = acked;
  r.failed = failed;

  FencedKvProclet* p = rt.UnsafeGet<FencedKvProclet>(kv.id());
  if (p != nullptr) {
    r.duplicates = p->guard().duplicates();
  }
  for (int i = 0; i < kWrites; ++i) {
    const uint64_t key = static_cast<uint64_t>(i);
    if (p == nullptr || !p->Get(key).ok() ||
        *p->Get(key) != static_cast<int64_t>(key) * 5 + 1 ||
        p->ApplyCount(key) != 1) {
      ++r.wrong;
    }
  }

  std::ostringstream digest;
  digest << r.detect.nanos() << '|' << r.recover.nanos() << '|'
         << r.writer_time.nanos() << '|' << r.suspicions << '|'
         << r.false_suspicions << '|' << r.confirmations << '|'
         << r.declared_dead << '|' << r.promotions << '|' << r.fenced_rpcs
         << '|' << r.duplicates << '|' << r.retransmits << '|'
         << r.unreachable << '|' << r.dropped << '|' << r.acked << '|'
         << r.failed << '|' << r.wrong << '|'
         << detector.heartbeats_sent() << '|'
         << detector.heartbeats_delivered() << '|'
         << detector.posthumous_heartbeats() << '|' << rt.EpochOf(kv.id())
         << '|' << sim.Now().nanos() << '|' << std::hex << tracer->Digest();
  r.digest = digest.str();

  if (postmortem_path != nullptr) {
    if (const Postmortem* postmortem = recorder.ForMachine(1)) {
      WriteResultFile(postmortem_path, FlightRecorder::Dump(*postmortem));
      std::printf("ab8: wrote m1 postmortem (%zu events, reason '%s') to %s\n",
                  postmortem->events.size(), postmortem->reason.c_str(),
                  postmortem_path);
    }
  }
  return r;
}

int Smoke(BenchTrace* trace) {
  const RunResult first =
      RunOne(Scenario::kGray, Duration::Millis(8), 0.0, trace, "smoke_run1");
  const RunResult second =
      RunOne(Scenario::kGray, Duration::Millis(8), 0.0, trace, "smoke_run2");
  std::printf("ab8 smoke: detect %s, recover %s, %lld/%d acked, %lld fenced, "
              "%lld deduped, %lld wrong\n",
              first.detect.ToString().c_str(), first.recover.ToString().c_str(),
              static_cast<long long>(first.acked), kWrites,
              static_cast<long long>(first.fenced_rpcs),
              static_cast<long long>(first.duplicates),
              static_cast<long long>(first.wrong));
  if (first.digest != second.digest) {
    std::printf("ab8 smoke: FAIL — same-seed runs diverged\n  first:  %s\n"
                "  second: %s\n",
                first.digest.c_str(), second.digest.c_str());
    return 1;
  }
  if (first.acked != kWrites || first.failed != 0 || first.wrong != 0 ||
      first.promotions != 1) {
    std::printf("ab8 smoke: FAIL — lost or duplicated writes (acked %lld, "
                "failed %lld, wrong %lld, promotions %lld)\n",
                static_cast<long long>(first.acked),
                static_cast<long long>(first.failed),
                static_cast<long long>(first.wrong),
                static_cast<long long>(first.promotions));
    return 1;
  }
  std::printf("ab8 smoke: PASS (deterministic, exactly-once across the "
              "failover)\n");
  return 0;
}

void AddRow(BenchJson& json, const std::string& scenario, double knob,
            const RunResult& r) {
  // knob: confirm ms for partition scenarios, loss fraction for kLoss.
  json.AddRow()
      .Str("scenario", scenario)
      .Num("knob", knob)
      .Int("detect_us", r.detect.nanos() / 1000)
      .Int("recover_us", r.recover.nanos() / 1000)
      .Int("writer_us", r.writer_time.nanos() / 1000)
      .Int("suspicions", r.suspicions)
      .Int("false_suspicions", r.false_suspicions)
      .Int("declared_dead", r.declared_dead)
      .Int("promotions", r.promotions)
      .Int("fenced_rpcs", r.fenced_rpcs)
      .Int("duplicates", r.duplicates)
      .Int("retransmits", r.retransmits)
      .Int("unreachable", r.unreachable)
      .Int("acked", r.acked)
      .Int("failed", r.failed)
      .Int("wrong", r.wrong);
}

void Main(BenchTrace* trace) {
  std::printf("=== A8: detection timeout vs false suspicion and recovery ===\n");
  std::printf("(%d machines, heartbeat 500us, suspect 2ms; a fenced kv "
              "proclet on m1 with a durable backup; %d at-least-once writes "
              "from m0)\n\n",
              kMachines, kWrites);

  const std::vector<Duration> confirms = {
      Duration::Millis(4), Duration::Millis(8), Duration::Millis(16),
      Duration::Millis(32)};
  BenchJson json;

  std::printf("--- transient one-way partition of m1, %s outage ---\n",
              kOutage.ToString().c_str());
  std::printf("%8s | %8s %9s | %8s %8s | %10s | %5s\n", "confirm", "suspect",
              "declared", "promote", "fenced", "writer", "wrong");
  for (const Duration confirm : confirms) {
    const RunResult r =
        RunOne(Scenario::kTransient, confirm, 0.0, trace,
               "transient_confirm_" + confirm.ToString());
    AddRow(json, "transient", static_cast<double>(confirm.nanos()) / 1e6, r);
    std::printf("%8s | %5lld/%-2lld %9lld | %8lld %8lld | %10s | %5lld\n",
                confirm.ToString().c_str(),
                static_cast<long long>(r.false_suspicions),
                static_cast<long long>(r.suspicions),
                static_cast<long long>(r.declared_dead),
                static_cast<long long>(r.promotions),
                static_cast<long long>(r.fenced_rpcs),
                r.writer_time.ToString().c_str(),
                static_cast<long long>(r.wrong));
  }
  std::printf("(a confirm timeout shorter than the outage declares a healthy "
              "machine dead and fails over for nothing; a longer one rides "
              "it out with a false suspicion)\n\n");

  std::printf("--- permanent gray failure of m1 (%s window) ---\n",
              kGrayWindow.ToString().c_str());
  std::printf("%8s | %9s %9s | %8s %8s | %10s | %5s\n", "confirm", "detect",
              "recover", "fenced", "dedup", "writer", "wrong");
  for (const Duration confirm : confirms) {
    // The default-timeout run leaves m1's flight-recorder postmortem behind.
    const RunResult r = RunOne(
        Scenario::kGray, confirm, 0.0, trace,
        "gray_confirm_" + confirm.ToString(),
        confirm == Duration::Millis(8) ? "results/ab8_postmortem_m1.txt"
                                       : nullptr);
    AddRow(json, "gray", static_cast<double>(confirm.nanos()) / 1e6, r);
    std::printf("%8s | %9s %9s | %8lld %8lld | %10s | %5lld\n",
                confirm.ToString().c_str(), r.detect.ToString().c_str(),
                r.recover.ToString().c_str(),
                static_cast<long long>(r.fenced_rpcs),
                static_cast<long long>(r.duplicates),
                r.writer_time.ToString().c_str(),
                static_cast<long long>(r.wrong));
  }
  std::printf("(time-to-recover tracks the confirm timeout almost 1:1 — the "
              "promotion itself is a control message)\n\n");

  std::printf("--- per-link packet loss, no partition (confirm 8ms) ---\n");
  std::printf("%6s | %8s %9s | %10s %11s | %10s | %5s\n", "loss", "suspect",
              "declared", "retransmit", "unreachable", "writer", "wrong");
  for (const double loss : {0.05, 0.15, 0.30}) {
    const RunResult r =
        RunOne(Scenario::kLoss, Duration::Millis(8), loss, trace,
               "loss_" + std::to_string(static_cast<int>(loss * 100)) + "pct");
    AddRow(json, "loss", loss, r);
    std::printf("%5.0f%% | %5lld/%-2lld %9lld | %10lld %11lld | %10s | %5lld\n",
                loss * 100, static_cast<long long>(r.false_suspicions),
                static_cast<long long>(r.suspicions),
                static_cast<long long>(r.declared_dead),
                static_cast<long long>(r.retransmits),
                static_cast<long long>(r.unreachable),
                r.writer_time.ToString().c_str(),
                static_cast<long long>(r.wrong));
  }
  std::printf("(loss inflates retransmits and can falsely suspect — but the "
              "request-id dedup keeps every acked write exactly-once "
              "regardless)\n");
  json.WriteFile("results/BENCH_ab8.json");
}

}  // namespace
}  // namespace quicksand

int main(int argc, char** argv) {
  quicksand::BenchTrace trace = quicksand::BenchTrace::FromArgs(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return quicksand::Smoke(&trace);
  }
  quicksand::Main(&trace);
  return 0;
}

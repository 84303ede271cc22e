#include "quicksand/proclet/compute_proclet.h"

#include <gtest/gtest.h>

#include "quicksand/common/bytes.h"

namespace quicksand {
namespace {

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  Fixture() {
    MachineSpec spec;
    spec.cores = 2;
    spec.memory_bytes = 1_GiB;
    cluster.AddMachine(spec);
    cluster.AddMachine(spec);
    rt = std::make_unique<Runtime>(sim, cluster);
  }

  Ref<ComputeProclet> Make(MachineId where, int workers = 2) {
    PlacementRequest req;
    req.heap_bytes = 4096;
    req.pinned = where;
    return *sim.BlockOn(rt->Create<ComputeProclet>(rt->CtxOn(0), req, workers));
  }

  Task<Status> Submit(Ref<ComputeProclet> cp, ComputeProclet::Job job) {
    // Named task: see the GCC 12 note in sim/task.h.
    auto call = cp.Call(
        cp.runtime()->CtxOn(0),
        [job = std::move(job)](ComputeProclet& p) mutable -> Task<Status> {
          co_return p.Submit(std::move(job));
        });
    co_return co_await std::move(call);
  }
};

ComputeProclet::Job BurnJob(Duration work, int64_t* counter) {
  return [work, counter](Ctx ctx) -> Task<> {
    co_await BurnCpu(ctx, work);
    ++*counter;
  };
}

TEST(ComputeProcletTest, RunsSubmittedJobs) {
  Fixture f;
  Ref<ComputeProclet> cp = f.Make(0);
  int64_t counter = 0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(f.sim.BlockOn(f.Submit(cp, BurnJob(1_ms, &counter))).ok());
  }
  f.sim.RunUntilIdle();
  EXPECT_EQ(counter, 10);
  auto* p = f.rt->UnsafeGet<ComputeProclet>(cp.id());
  EXPECT_EQ(p->completed(), 10);
  EXPECT_TRUE(p->idle());
}

TEST(ComputeProcletTest, JobsBurnCpuOnHostMachine) {
  Fixture f;
  Ref<ComputeProclet> cp = f.Make(1);
  int64_t counter = 0;
  EXPECT_TRUE(f.sim.BlockOn(f.Submit(cp, BurnJob(10_ms, &counter))).ok());
  f.sim.RunUntilIdle();
  EXPECT_EQ(counter, 1);
  EXPECT_EQ(f.cluster.machine(1).cpu().TotalBusy(), 10_ms);
  EXPECT_EQ(f.cluster.machine(0).cpu().TotalBusy(), Duration::Zero());
}

TEST(ComputeProcletTest, WorkersBoundConcurrency) {
  Fixture f;
  // 1 worker: jobs serialize even though the machine has 2 cores.
  Ref<ComputeProclet> cp = f.Make(0, /*workers=*/1);
  int64_t counter = 0;
  const SimTime start = f.sim.Now();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(f.sim.BlockOn(f.Submit(cp, BurnJob(5_ms, &counter))).ok());
  }
  f.sim.RunUntilIdle();
  EXPECT_EQ(counter, 4);
  EXPECT_EQ(f.sim.Now() - start, 20_ms);
}

TEST(ComputeProcletTest, TwoWorkersUseBothCores) {
  Fixture f;
  Ref<ComputeProclet> cp = f.Make(0, /*workers=*/2);
  int64_t counter = 0;
  const SimTime start = f.sim.Now();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(f.sim.BlockOn(f.Submit(cp, BurnJob(5_ms, &counter))).ok());
  }
  f.sim.RunUntilIdle();
  EXPECT_EQ(counter, 4);
  EXPECT_EQ(f.sim.Now() - start, 10_ms);
}

TEST(ComputeProcletTest, MigrationMovesQueuedJobs) {
  Fixture f;
  Ref<ComputeProclet> cp = f.Make(0, /*workers=*/1);
  int64_t counter = 0;
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(f.sim.BlockOn(f.Submit(cp, BurnJob(2_ms, &counter))).ok());
  }
  // Migrate while jobs are queued; the in-flight job drains first
  // (OnQuiesce), queued jobs follow the proclet.
  EXPECT_TRUE(f.sim.BlockOn(f.rt->Migrate(cp.id(), 1)).ok());
  f.sim.RunUntilIdle();
  EXPECT_EQ(counter, 6);
  // Work ran on both machines: some before the move, the rest after.
  EXPECT_GT(f.cluster.machine(0).cpu().TotalBusy(), Duration::Zero());
  EXPECT_GT(f.cluster.machine(1).cpu().TotalBusy(), Duration::Zero());
  EXPECT_EQ(f.cluster.machine(0).cpu().TotalBusy() +
                f.cluster.machine(1).cpu().TotalBusy(),
            12_ms);
}

TEST(ComputeProcletTest, DestroyDropsQueuedJobsAndStopsWorkers) {
  Fixture f;
  Ref<ComputeProclet> cp = f.Make(0, 1);
  int64_t counter = 0;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(f.sim.BlockOn(f.Submit(cp, BurnJob(10_ms, &counter))).ok());
  }
  // Destroy while the first job runs: it completes (quiesce), the rest drop.
  EXPECT_TRUE(f.sim.BlockOn(f.rt->Destroy(f.rt->CtxOn(0), cp.id())).ok());
  f.sim.RunUntilIdle();
  EXPECT_EQ(counter, 1);
  EXPECT_EQ(f.cluster.machine(0).memory().used(), 0);
}

TEST(ComputeProcletTest, JobExceptionsAreContained) {
  Fixture f;
  Ref<ComputeProclet> cp = f.Make(0);
  int64_t counter = 0;
  EXPECT_TRUE(f.sim
                  .BlockOn(f.Submit(cp,
                                    [](Ctx) -> Task<> {
                                      throw std::runtime_error("job boom");
                                      co_return;
                                    }))
                  .ok());
  EXPECT_TRUE(f.sim.BlockOn(f.Submit(cp, BurnJob(1_ms, &counter))).ok());
  f.sim.RunUntilIdle();
  EXPECT_EQ(counter, 1);  // later jobs unaffected
  auto* p = f.rt->UnsafeGet<ComputeProclet>(cp.id());
  EXPECT_EQ(p->job_errors(), 1);
}

}  // namespace
}  // namespace quicksand

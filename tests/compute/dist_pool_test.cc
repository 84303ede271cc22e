#include "quicksand/compute/dist_pool.h"

#include <gtest/gtest.h>

#include "quicksand/common/bytes.h"

namespace quicksand {
namespace {

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  explicit Fixture(int machines = 2, int cores = 4) {
    for (int i = 0; i < machines; ++i) {
      MachineSpec spec;
      spec.cores = cores;
      spec.memory_bytes = 2_GiB;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
  }

  Ctx ctx() { return rt->CtxOn(0); }

  DistPool MakePool(int proclets, int workers = 2) {
    DistPool::Options options;
    options.initial_proclets = proclets;
    options.workers_per_proclet = workers;
    return *sim.BlockOn(DistPool::Create(ctx(), options));
  }
};

ComputeProclet::Job Burn(Duration work, int64_t* done) {
  return [work, done](Ctx ctx) -> Task<> {
    co_await BurnCpu(ctx, work);
    ++*done;
  };
}

TEST(DistPoolTest, RunsJobsAcrossMembers) {
  Fixture f;
  DistPool pool = f.MakePool(2);
  int64_t done = 0;
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(f.sim.BlockOn(pool.Submit(f.ctx(), Burn(1_ms, &done))).ok());
  }
  f.sim.BlockOn(pool.Drain(f.ctx()));
  EXPECT_EQ(done, 20);
  EXPECT_EQ(pool.submitted(), 20);
}

TEST(DistPoolTest, MembersSpreadAcrossMachines) {
  Fixture f(4);
  DistPool pool = f.MakePool(4);
  std::set<MachineId> machines;
  for (const auto& member : pool.members()) {
    machines.insert(member.Location());
  }
  EXPECT_GE(machines.size(), 2u);
}

TEST(DistPoolTest, LeastBackloggedMemberGetsWork) {
  Fixture f;
  DistPool pool = f.MakePool(2, 1);
  int64_t done = 0;
  // Saturate member queues unevenly by submitting while everything is busy,
  // then assert roughly even backlogs (the balancer picks the shortest).
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(f.sim.BlockOn(pool.Submit(f.ctx(), Burn(5_ms, &done))).ok());
  }
  int64_t q0 = 0;
  int64_t q1 = 0;
  if (auto* p = f.rt->UnsafeGet<ComputeProclet>(pool.members()[0].id())) {
    q0 = p->queue_depth() + p->inflight();
  }
  if (auto* p = f.rt->UnsafeGet<ComputeProclet>(pool.members()[1].id())) {
    q1 = p->queue_depth() + p->inflight();
  }
  EXPECT_NEAR(static_cast<double>(q0), static_cast<double>(q1), 2.0);
  f.sim.BlockOn(pool.Drain(f.ctx()));
  EXPECT_EQ(done, 40);
}

TEST(DistPoolTest, GrowAddsCapacity) {
  Fixture f(2, 2);
  DistPool pool = f.MakePool(1, 2);
  EXPECT_EQ(pool.members().size(), 1u);
  EXPECT_TRUE(f.sim.BlockOn(pool.Grow(f.ctx())).ok());
  EXPECT_EQ(pool.members().size(), 2u);

  // 8 x 10ms of work over 2 proclets x 2 workers on 2x2 cores = ~20ms.
  int64_t done = 0;
  const SimTime start = f.sim.Now();
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(f.sim.BlockOn(pool.Submit(f.ctx(), Burn(10_ms, &done))).ok());
  }
  f.sim.BlockOn(pool.Drain(f.ctx()));
  EXPECT_EQ(done, 8);
  EXPECT_LT(f.sim.Now() - start, 25_ms);
}

TEST(DistPoolTest, ShutdownDestroysMembers) {
  Fixture f;
  DistPool pool = f.MakePool(3);
  const size_t before = f.rt->proclet_count();
  f.sim.BlockOn(pool.Shutdown(f.ctx()));
  f.sim.RunUntilIdle();
  EXPECT_EQ(f.rt->proclet_count(), before - 3);
  EXPECT_TRUE(pool.members().empty());
}

}  // namespace
}  // namespace quicksand

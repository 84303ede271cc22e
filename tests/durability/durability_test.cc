// Unit coverage for the durability subsystem: checkpoint/restore roundtrip,
// incremental checkpoint accounting, backup promotion healing DistPtrs,
// AwaitRestore's bounded stall, and DistPool lineage dedup.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "quicksand/cluster/fault_injector.h"
#include "quicksand/common/bytes.h"
#include "quicksand/compute/dist_pool.h"
#include "quicksand/durability/checkpoint_manager.h"
#include "quicksand/durability/recovery_coordinator.h"
#include "quicksand/durability/replication.h"
#include "quicksand/proclet/memory_proclet.h"

namespace quicksand {
namespace {

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;
  std::unique_ptr<FaultInjector> faults;

  explicit Fixture(int machines = 4) {
    for (int i = 0; i < machines; ++i) {
      MachineSpec spec;
      spec.memory_bytes = 2 * kGiB;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
    faults = std::make_unique<FaultInjector>(sim, cluster);
    rt->AttachFaultInjector(*faults);
  }

  Ctx ctx() { return rt->CtxOn(0); }

  Ref<MemoryProclet> CreatePinned(MachineId machine,
                                  int64_t heap = 1 * kMiB) {
    PlacementRequest req;
    req.heap_bytes = heap;
    req.pinned = machine;
    return *sim.BlockOn(rt->Create<MemoryProclet>(ctx(), req));
  }

  void Crash(MachineId machine) {
    faults->ScheduleCrash(sim.Now() + Duration::Millis(1), machine);
    sim.RunFor(Duration::Millis(50));
  }
};

Task<Result<uint64_t>> Put(Ctx ctx, Ref<MemoryProclet> p, std::string value) {
  auto call = p.Call(
      ctx,
      [value = std::move(value)](MemoryProclet& m) mutable
      -> Task<Result<uint64_t>> { co_return m.PutObject(std::move(value)); },
      WireSizeOf(value));
  co_return co_await std::move(call);
}

Task<Result<std::string>> GetString(Ctx ctx, Ref<MemoryProclet> p,
                                    uint64_t id) {
  auto call = p.Call(ctx, [id](MemoryProclet& m) -> Task<Result<std::string>> {
    co_return m.template GetObject<std::string>(id);
  });
  co_return co_await std::move(call);
}

TEST(CheckpointTest, RestoreLostProcletFromCheckpoint) {
  Fixture f;
  CheckpointManager checkpoints(*f.rt);
  RecoveryCoordinator recovery(*f.rt);
  recovery.AttachCheckpoints(&checkpoints);
  recovery.Arm(*f.faults);

  Ref<MemoryProclet> p = f.CreatePinned(1);
  uint64_t id = *f.sim.BlockOn(Put(f.ctx(), p, std::string("durable")));
  ASSERT_TRUE(
      f.sim.BlockOn(checkpoints.ProtectAs<MemoryProclet>(f.ctx(), p.id()))
          .ok());
  EXPECT_EQ(checkpoints.protected_count(), 1);

  f.Crash(1);

  // The coordinator restored it; the old ref heals through the directory.
  EXPECT_FALSE(f.rt->IsLost(p.id()));
  EXPECT_NE(p.Location(), 1u);
  EXPECT_EQ(f.rt->stats().restored_proclets, 1);
  EXPECT_EQ(recovery.total_restored(), 1);
  EXPECT_EQ(recovery.total_unrecoverable(), 0);
  Result<std::string> value = f.sim.BlockOn(GetString(f.ctx(), p, id));
  ASSERT_TRUE(value.ok()) << value.status().message();
  EXPECT_EQ(*value, "durable");
}

TEST(CheckpointTest, IncrementalCheckpointShipsOnlyDirtyBytes) {
  Fixture f;
  CheckpointManager checkpoints(*f.rt);

  Ref<MemoryProclet> p = f.CreatePinned(1);
  (void)*f.sim.BlockOn(Put(f.ctx(), p, std::string(64 * 1024, 'x')));
  ASSERT_TRUE(
      f.sim.BlockOn(checkpoints.ProtectAs<MemoryProclet>(f.ctx(), p.id()))
          .ok());
  const int64_t full = checkpoints.bytes_shipped();
  EXPECT_GE(full, 64 * 1024);  // first checkpoint ships the full image

  // A small mutation: the next checkpoint ships only the delta.
  (void)*f.sim.BlockOn(Put(f.ctx(), p, std::string(512, 'y')));
  ASSERT_TRUE(f.sim.BlockOn(checkpoints.CheckpointNow(f.ctx(), p.id())).ok());
  const int64_t delta = checkpoints.bytes_shipped() - full;
  EXPECT_GT(delta, 0);
  EXPECT_LT(delta, full / 4);

  // Nothing dirty: a third checkpoint is free.
  ASSERT_TRUE(f.sim.BlockOn(checkpoints.CheckpointNow(f.ctx(), p.id())).ok());
  EXPECT_EQ(checkpoints.bytes_shipped() - full, delta);

  // The runtime-level counter matches the manager's own accounting.
  EXPECT_EQ(f.rt->stats().checkpoint_bytes, checkpoints.bytes_shipped());
}

TEST(ReplicationTest, PromotionHealsExistingDistPtrs) {
  Fixture f;
  ReplicationManager replication(*f.rt);
  RecoveryCoordinator recovery(*f.rt);
  recovery.AttachReplication(&replication);
  replication.Arm(*f.faults);
  recovery.Arm(*f.faults);

  Ref<MemoryProclet> p = f.CreatePinned(1);
  DistPtr<std::string> ptr =
      *f.sim.BlockOn(NewPtr(f.ctx(), p, std::string("v0")));
  ASSERT_TRUE(
      f.sim.BlockOn(replication.ReplicateAs<MemoryProclet>(f.ctx(), p.id()))
          .ok());
  const MachineId backup = replication.BackupMachineOf(p.id());
  EXPECT_NE(backup, 1u);

  // A mutation after establishment rides the log to the backup.
  ASSERT_TRUE(f.sim.BlockOn(ptr.Store(f.ctx(), std::string("v1"))).ok());
  EXPECT_GE(replication.mutations_shipped(), 1);

  f.Crash(1);

  EXPECT_EQ(replication.promotions(), 1);
  EXPECT_FALSE(f.rt->IsLost(p.id()));
  EXPECT_EQ(p.Location(), backup);  // promoted in place, no data transfer
  EXPECT_EQ(f.rt->stats().restored_proclets, 1);
  Result<std::string> value = f.sim.BlockOn(ptr.Load(f.ctx()));
  ASSERT_TRUE(value.ok()) << value.status().message();
  EXPECT_EQ(*value, "v1");  // the acked mutation survived the crash
}

TEST(RecoveryTest, AwaitRestoreTimesOutWithoutRecovery) {
  Fixture f;
  Ref<MemoryProclet> p = f.CreatePinned(1);
  f.Crash(1);
  ASSERT_TRUE(f.rt->IsLost(p.id()));

  const SimTime before = f.sim.Now();
  const bool restored =
      f.sim.BlockOn(f.rt->AwaitRestore(p.id(), Duration::Millis(2)));
  EXPECT_FALSE(restored);
  EXPECT_LE(f.sim.Now() - before, Duration::Millis(3));  // bounded stall
}

// A job that completed on a machine that later crashed must not be
// double-counted when lineage resubmits the incomplete set: the completion
// marker lives client-side, so whichever duplicate runs second no-ops.
TEST(DistPoolTest, LineageResubmitNeverDoubleCounts) {
  Fixture f;
  DistPool::Options options;
  options.initial_proclets = 2;
  options.lineage = true;
  DistPool pool = *f.sim.BlockOn(DistPool::Create(f.ctx(), options));
  ASSERT_EQ(pool.members().size(), 2u);

  constexpr int kJobs = 8;
  int64_t counter = 0;
  for (int i = 0; i < kJobs; ++i) {
    Status submitted = f.sim.BlockOn(pool.Submit(
        f.ctx(), [&counter](Ctx jctx) -> Task<> {
          co_await jctx.rt->sim().Sleep(Duration::Micros(200));
          ++counter;
        }));
    ASSERT_TRUE(submitted.ok());
  }
  EXPECT_EQ(pool.pending_jobs(), kJobs);

  // Kill one member's machine while jobs are still queued or running, then
  // resubmit everything that has not completed. Jobs whose first copy is
  // still queued on the survivor get a duplicate; dedup absorbs it.
  const MachineId victim = pool.members()[1].Location();
  f.faults->ScheduleCrash(f.sim.Now() + Duration::Micros(50), victim);
  f.sim.RunFor(Duration::Millis(2));
  ASSERT_TRUE(f.sim.BlockOn(pool.ResubmitIncomplete(f.ctx())).ok());
  f.sim.BlockOn(pool.Drain(f.ctx()));

  EXPECT_EQ(counter, kJobs);  // every job counted exactly once
  EXPECT_EQ(pool.pending_jobs(), 0);
  EXPECT_GE(pool.deduped_jobs(), 0);
}

// Without lineage the same scenario double-counts: the pool's at-least-once
// retry re-runs work whose completion the crash erased. This pins down WHY
// the lineage option exists (and documents the default's sharp edge).
TEST(DistPoolTest, WithoutLineageResubmissionDoubleCounts) {
  Fixture f;
  DistPool::Options options;
  options.initial_proclets = 2;
  options.lineage = false;
  DistPool pool = *f.sim.BlockOn(DistPool::Create(f.ctx(), options));

  constexpr int kJobs = 4;
  int64_t counter = 0;
  auto submit_all = [&]() {
    for (int i = 0; i < kJobs; ++i) {
      (void)f.sim.BlockOn(pool.Submit(f.ctx(), [&counter](Ctx) -> Task<> {
        ++counter;
        co_return;
      }));
    }
  };
  submit_all();
  f.sim.BlockOn(pool.Drain(f.ctx()));
  EXPECT_EQ(counter, kJobs);
  // The naive client-side "retry everything" after a crash reruns finished
  // jobs — there is no marker to stop it.
  submit_all();
  f.sim.BlockOn(pool.Drain(f.ctx()));
  EXPECT_EQ(counter, 2 * kJobs);
}

}  // namespace
}  // namespace quicksand

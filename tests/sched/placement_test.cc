#include "quicksand/sched/placement.h"

#include <gtest/gtest.h>

#include "quicksand/common/bytes.h"

namespace quicksand {
namespace {

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};

  MachineId Add(int cores, int64_t mem) {
    MachineSpec spec;
    spec.cores = cores;
    spec.memory_bytes = mem;
    return cluster.AddMachine(spec);
  }
};

PlacementRequest MemReq(int64_t bytes) {
  PlacementRequest r;
  r.kind = ProcletKind::kMemory;
  r.heap_bytes = bytes;
  return r;
}

PlacementRequest ComputeReq() {
  PlacementRequest r;
  r.kind = ProcletKind::kCompute;
  r.heap_bytes = 4096;
  return r;
}

TEST(PlacementTest, FirstFitTakesLowestFeasibleId) {
  Fixture f;
  f.Add(4, 1_GiB);
  f.Add(4, 8_GiB);
  FirstFitPolicy policy;
  EXPECT_EQ(*policy.Place(MemReq(512_MiB), f.cluster), 0u);
  EXPECT_EQ(*policy.Place(MemReq(2_GiB), f.cluster), 1u);  // 0 too small
}

TEST(PlacementTest, BestFitMemoryPicksMostFreeBytes) {
  Fixture f;
  f.Add(4, 2_GiB);
  f.Add(4, 8_GiB);
  f.Add(4, 4_GiB);
  BestFitPolicy policy;
  EXPECT_EQ(*policy.Place(MemReq(1_MiB), f.cluster), 1u);
  EXPECT_TRUE(f.cluster.machine(1).memory().TryCharge(7_GiB));
  EXPECT_EQ(*policy.Place(MemReq(1_MiB), f.cluster), 2u);
}

TEST(PlacementTest, BestFitComputePicksIdlestCpu) {
  Fixture f;
  const MachineId a = f.Add(8, 4_GiB);
  const MachineId b = f.Add(4, 4_GiB);
  BestFitPolicy policy;
  // 8 idle cores beats 4 idle cores.
  EXPECT_EQ(*policy.Place(ComputeReq(), f.cluster), a);
  // Load machine a with runnable work: 8 requests on 8 cores.
  for (int i = 0; i < 8; ++i) {
    f.sim.Spawn(f.cluster.machine(a).cpu().Run(1_s), "burn");
  }
  f.sim.RunUntil(f.sim.Now() + 1_ms);
  EXPECT_EQ(*policy.Place(ComputeReq(), f.cluster), b);
}

TEST(PlacementTest, PinnedOverridesPolicy) {
  Fixture f;
  f.Add(4, 1_GiB);
  f.Add(4, 8_GiB);
  BestFitPolicy policy;
  PlacementRequest req = MemReq(1_MiB);
  req.pinned = MachineId{0};
  EXPECT_EQ(*policy.Place(req, f.cluster), 0u);
}

TEST(PlacementTest, ExcludeSkipsMachine) {
  Fixture f;
  f.Add(4, 8_GiB);
  f.Add(4, 4_GiB);
  BestFitPolicy policy;
  PlacementRequest req = MemReq(1_MiB);
  req.exclude = MachineId{0};
  EXPECT_EQ(*policy.Place(req, f.cluster), 1u);
}

TEST(PlacementTest, ResourceExhaustedWhenNothingFits) {
  Fixture f;
  f.Add(4, 1_GiB);
  BestFitPolicy policy;
  EXPECT_EQ(policy.Place(MemReq(2_GiB), f.cluster).status().code(),
            StatusCode::kResourceExhausted);
  FirstFitPolicy ff;
  EXPECT_EQ(ff.Place(MemReq(2_GiB), f.cluster).status().code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace quicksand

#include "quicksand/ds/sharded_vector.h"

#include <gtest/gtest.h>

#include <vector>

#include "quicksand/common/bytes.h"

namespace quicksand {
namespace {

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  explicit Fixture(int machines = 2, int64_t mem = 2_GiB) {
    for (int i = 0; i < machines; ++i) {
      MachineSpec spec;
      spec.cores = 4;
      spec.memory_bytes = mem;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
  }

  Ctx ctx() { return rt->CtxOn(0); }
};

using IntVector = ShardedVector<int64_t>;

Task<IntVector> MakeVector(Ctx ctx, IntVector::Options options = {}) {
  auto create = IntVector::Create(ctx, options);
  Result<IntVector> vec = co_await std::move(create);
  co_return *vec;
}

Task<> PushN(IntVector& vec, Ctx ctx, int64_t n, int64_t offset = 0) {
  for (int64_t i = 0; i < n; ++i) {
    auto push = vec.PushBack(ctx, offset + i);
    Result<uint64_t> idx = co_await std::move(push);
    EXPECT_TRUE(idx.ok());
  }
}

TEST(ShardedVectorTest, PushBackAssignsDenseIndices) {
  Fixture f;
  IntVector vec = f.sim.BlockOn(MakeVector(f.ctx()));
  for (int64_t i = 0; i < 10; ++i) {
    Result<uint64_t> idx = f.sim.BlockOn(vec.PushBack(f.ctx(), i * 100));
    ASSERT_TRUE(idx.ok());
    EXPECT_EQ(*idx, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(*f.sim.BlockOn(vec.Size(f.ctx())), 10u);
}

TEST(ShardedVectorTest, GetReturnsPushedValues) {
  Fixture f;
  IntVector vec = f.sim.BlockOn(MakeVector(f.ctx()));
  f.sim.BlockOn(PushN(vec, f.ctx(), 100));
  for (uint64_t i = 0; i < 100; i += 7) {
    Result<int64_t> v = f.sim.BlockOn(vec.Get(f.ctx(), i));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, static_cast<int64_t>(i));
  }
}

TEST(ShardedVectorTest, GetPastEndIsOutOfRange) {
  Fixture f;
  IntVector vec = f.sim.BlockOn(MakeVector(f.ctx()));
  f.sim.BlockOn(PushN(vec, f.ctx(), 5));
  EXPECT_EQ(f.sim.BlockOn(vec.Get(f.ctx(), 5)).status().code(),
            StatusCode::kOutOfRange);
}

TEST(ShardedVectorTest, SetOverwrites) {
  Fixture f;
  IntVector vec = f.sim.BlockOn(MakeVector(f.ctx()));
  f.sim.BlockOn(PushN(vec, f.ctx(), 10));
  EXPECT_TRUE(f.sim.BlockOn(vec.Set(f.ctx(), 3, 999)).ok());
  EXPECT_EQ(*f.sim.BlockOn(vec.Get(f.ctx(), 3)), 999);
}

TEST(ShardedVectorTest, GrowsIntoMultipleShards) {
  Fixture f;
  IntVector::Options options;
  options.max_shard_bytes = 256;  // 32 int64s per shard
  IntVector vec = f.sim.BlockOn(MakeVector(f.ctx(), options));
  f.sim.BlockOn(PushN(vec, f.ctx(), 200));
  f.sim.BlockOn(vec.router().Refresh(f.ctx()));
  EXPECT_GE(vec.router().cached_shards().size(), 5u);
  // All elements still addressable.
  for (uint64_t i = 0; i < 200; i += 13) {
    EXPECT_EQ(*f.sim.BlockOn(vec.Get(f.ctx(), i)), static_cast<int64_t>(i));
  }
  EXPECT_EQ(*f.sim.BlockOn(vec.Size(f.ctx())), 200u);
}

// A split or merge planned from an index snapshot taken before the tail grew
// fails whole: the index keeps partitioning the space and every element
// stays readable.
TEST(ShardedVectorTest, ReshapeFromSnapshotBeforeTailGrowthRollsBack) {
  Fixture f;
  IntVector::Options options;
  options.max_shard_bytes = 256;  // 32 int64s per shard
  IntVector vec = f.sim.BlockOn(MakeVector(f.ctx(), options));
  f.sim.BlockOn(PushN(vec, f.ctx(), 40));  // [0, 32) sealed, [32, end) tail
  f.sim.BlockOn(vec.router().Refresh(f.ctx()));
  const std::vector<ShardInfo> stale = vec.router().cached_shards();
  ASSERT_EQ(stale.size(), 2u);
  ASSERT_EQ(stale[1].end, UINT64_MAX);
  f.sim.BlockOn(PushN(vec, f.ctx(), 32, 40));  // [32, 64) sealed, [64, end) tail

  EXPECT_EQ(f.sim.BlockOn(vec.Split(f.ctx(), stale[1])).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(f.sim.BlockOn(vec.Merge(f.ctx(), stale[0], stale[1])).code(),
            StatusCode::kFailedPrecondition);

  f.sim.BlockOn(vec.router().Refresh(f.ctx()));
  const std::vector<ShardInfo> shards = vec.router().cached_shards();
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards.front().begin, 0u);
  for (size_t i = 0; i + 1 < shards.size(); ++i) {
    EXPECT_EQ(shards[i].end, shards[i + 1].begin);
  }
  EXPECT_EQ(shards.back().end, UINT64_MAX);
  for (uint64_t i = 0; i < 72; ++i) {
    Result<int64_t> v = f.sim.BlockOn(vec.Get(f.ctx(), i));
    ASSERT_TRUE(v.ok()) << i << ": " << v.status().ToString();
    EXPECT_EQ(*v, static_cast<int64_t>(i));
  }
  EXPECT_EQ(*f.sim.BlockOn(vec.Size(f.ctx())), 72u);
}

TEST(ShardedVectorTest, ShardsSpreadAcrossMachines) {
  Fixture f(4);
  IntVector::Options options;
  options.max_shard_bytes = 256;
  IntVector vec = f.sim.BlockOn(MakeVector(f.ctx(), options));
  f.sim.BlockOn(PushN(vec, f.ctx(), 500));
  // Best-fit placement should not leave everything on one machine.
  std::set<MachineId> used;
  f.sim.BlockOn(vec.router().Refresh(f.ctx()));
  for (const ShardInfo& s : vec.router().cached_shards()) {
    used.insert(f.rt->LocationOf(s.proclet));
  }
  EXPECT_GE(used.size(), 2u);
}

TEST(ShardedVectorTest, GetRangeSpansShards) {
  Fixture f;
  IntVector::Options options;
  options.max_shard_bytes = 256;
  IntVector vec = f.sim.BlockOn(MakeVector(f.ctx(), options));
  f.sim.BlockOn(PushN(vec, f.ctx(), 100));
  Result<std::vector<int64_t>> range = f.sim.BlockOn(vec.GetRange(f.ctx(), 10, 80));
  ASSERT_TRUE(range.ok());
  ASSERT_EQ(range->size(), 80u);
  for (size_t i = 0; i < 80; ++i) {
    EXPECT_EQ((*range)[i], static_cast<int64_t>(10 + i));
  }
}

TEST(ShardedVectorTest, GetRangeClampsAtEnd) {
  Fixture f;
  IntVector vec = f.sim.BlockOn(MakeVector(f.ctx()));
  f.sim.BlockOn(PushN(vec, f.ctx(), 20));
  Result<std::vector<int64_t>> range = f.sim.BlockOn(vec.GetRange(f.ctx(), 15, 100));
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->size(), 5u);
}

TEST(ShardedVectorTest, ElementsSurviveShardMigration) {
  Fixture f;
  IntVector::Options options;
  options.max_shard_bytes = 256;
  IntVector vec = f.sim.BlockOn(MakeVector(f.ctx(), options));
  f.sim.BlockOn(PushN(vec, f.ctx(), 100));
  // Migrate every shard to machine 1.
  f.sim.BlockOn(vec.router().Refresh(f.ctx()));
  for (const ShardInfo& s : vec.router().cached_shards()) {
    EXPECT_TRUE(f.sim.BlockOn(f.rt->Migrate(s.proclet, 1)).ok());
  }
  for (uint64_t i = 0; i < 100; i += 9) {
    EXPECT_EQ(*f.sim.BlockOn(vec.Get(f.ctx(), i)), static_cast<int64_t>(i));
  }
}

Task<> ConcurrentPusher(IntVector vec, Ctx ctx, int64_t n, std::vector<uint64_t>& got) {
  for (int64_t i = 0; i < n; ++i) {
    auto push = vec.PushBack(ctx, i);
    Result<uint64_t> idx = co_await std::move(push);
    EXPECT_TRUE(idx.ok());
    if (idx.ok()) {
      got.push_back(*idx);
    }
  }
}

TEST(ShardedVectorTest, ConcurrentPushersGetUniqueIndices) {
  Fixture f;
  IntVector::Options options;
  options.max_shard_bytes = 512;
  IntVector vec = f.sim.BlockOn(MakeVector(f.ctx(), options));
  std::vector<uint64_t> a;
  std::vector<uint64_t> b;
  // Two pushers share the same handle copy semantics (each gets a copy).
  Fiber fa = f.sim.Spawn(ConcurrentPusher(vec, f.rt->CtxOn(0), 100, a), "pa");
  Fiber fb = f.sim.Spawn(ConcurrentPusher(vec, f.rt->CtxOn(1), 100, b), "pb");
  f.sim.RunUntilIdle();
  EXPECT_TRUE(fa.done() && fb.done());
  std::set<uint64_t> all(a.begin(), a.end());
  all.insert(b.begin(), b.end());
  EXPECT_EQ(all.size(), 200u);  // no duplicates
  EXPECT_EQ(*f.sim.BlockOn(vec.Size(f.ctx())), 200u);
}

TEST(ShardedVectorTest, StringPayloads) {
  Fixture f;
  ShardedVector<std::string>::Options options;
  options.max_shard_bytes = 4096;
  auto vec = *f.sim.BlockOn(ShardedVector<std::string>::Create(f.ctx(), options));
  for (int i = 0; i < 50; ++i) {
    auto push = vec.PushBack(f.ctx(), std::string(100, static_cast<char>('a' + i % 26)));
    ASSERT_TRUE(f.sim.BlockOn(std::move(push)).ok());
  }
  Result<std::string> v = f.sim.BlockOn(vec.Get(f.ctx(), 26));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, std::string(100, 'a'));
}

}  // namespace
}  // namespace quicksand

#include "quicksand/sharding/shard_index.h"

#include <gtest/gtest.h>

#include "quicksand/common/bytes.h"
#include "quicksand/sharding/shard_client.h"

namespace quicksand {
namespace {

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  Fixture() {
    cluster.AddMachine(MachineSpec{});
    cluster.AddMachine(MachineSpec{});
    rt = std::make_unique<Runtime>(sim, cluster);
  }

  Ref<ShardIndexProclet> MakeIndex() {
    PlacementRequest req;
    req.heap_bytes = 4096;
    return *sim.BlockOn(rt->Create<ShardIndexProclet>(rt->CtxOn(0), req));
  }

  ShardIndexProclet* Get(Ref<ShardIndexProclet> ref) {
    return rt->UnsafeGet<ShardIndexProclet>(ref.id());
  }
};

ShardInfo Info(ProcletId id, uint64_t begin, uint64_t end) {
  ShardInfo info;
  info.proclet = id;
  info.begin = begin;
  info.end = end;
  return info;
}

TEST(ShardIndexTest, AddAndLookup) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());
  EXPECT_TRUE(index->AddShard(Info(11, 100, 200)).ok());
  EXPECT_EQ(index->LookupKey(0)->proclet, 10u);
  EXPECT_EQ(index->LookupKey(99)->proclet, 10u);
  EXPECT_EQ(index->LookupKey(100)->proclet, 11u);
  EXPECT_EQ(index->LookupKey(199)->proclet, 11u);
  EXPECT_EQ(index->LookupKey(200).status().code(), StatusCode::kNotFound);
}

TEST(ShardIndexTest, RejectsOverlaps) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  EXPECT_TRUE(index->AddShard(Info(10, 100, 200)).ok());
  EXPECT_EQ(index->AddShard(Info(11, 150, 250)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(index->AddShard(Info(11, 50, 101)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(index->AddShard(Info(11, 100, 200)).code(),
            StatusCode::kFailedPrecondition);
  // Exactly adjacent is fine.
  EXPECT_TRUE(index->AddShard(Info(11, 200, 300)).ok());
  EXPECT_TRUE(index->AddShard(Info(12, 50, 100)).ok());
}

TEST(ShardIndexTest, RejectsEmptyRange) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  EXPECT_EQ(index->AddShard(Info(10, 5, 5)).code(), StatusCode::kInvalidArgument);
}

TEST(ShardIndexTest, GapsAreNotFound) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());
  EXPECT_TRUE(index->AddShard(Info(11, 200, 300)).ok());
  EXPECT_EQ(index->LookupKey(150).status().code(), StatusCode::kNotFound);
}

TEST(ShardIndexTest, RemoveShard) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());
  EXPECT_TRUE(index->RemoveShard(10).ok());
  EXPECT_EQ(index->LookupKey(50).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(index->RemoveShard(10).code(), StatusCode::kNotFound);
}

TEST(ShardIndexTest, UpdateShardShrinksRange) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  EXPECT_TRUE(index->AddShard(Info(10, 0, UINT64_MAX)).ok());
  EXPECT_TRUE(index->UpdateShard(Info(10, 0, 64)).ok());
  EXPECT_EQ(index->LookupKey(63)->proclet, 10u);
  EXPECT_EQ(index->LookupKey(64).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(index->AddShard(Info(11, 64, UINT64_MAX)).ok());
}

TEST(ShardIndexTest, UpdateRejectsWrongProclet) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());
  EXPECT_EQ(index->UpdateShard(Info(99, 0, 50)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardIndexTest, VersionBumpsOnMutation) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  const uint64_t v0 = index->version();
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());
  EXPECT_GT(index->version(), v0);
  const uint64_t v1 = index->version();
  EXPECT_TRUE(index->UpdateShard(Info(10, 0, 50)).ok());
  EXPECT_GT(index->version(), v1);
}

TEST(ShardIndexTest, HoldsOnlyTheExactEntry) {
  Fixture f;
  auto* index = f.Get(f.MakeIndex());
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());
  EXPECT_TRUE(index->Holds(Info(10, 0, 100)));
  EXPECT_FALSE(index->Holds(Info(10, 0, 50)));    // stale end
  EXPECT_FALSE(index->Holds(Info(10, 50, 100)));  // not an entry's begin
  EXPECT_FALSE(index->Holds(Info(11, 0, 100)));   // another proclet
}

TEST(ShardRouterTest, CachesAndRefreshes) {
  Fixture f;
  Ref<ShardIndexProclet> ref = f.MakeIndex();
  auto* index = f.Get(ref);
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());

  ShardRouter router(ref);
  const Ctx ctx = f.rt->CtxOn(0);
  EXPECT_EQ(router.Lookup(50).status().code(), StatusCode::kOutOfRange);
  f.sim.BlockOn(router.Refresh(ctx));
  Result<ShardInfo> hit = router.Lookup(50);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->proclet, 10u);

  // Mutate behind the router's back; the cache still answers for old keys,
  // misses the new one until a refresh picks up the change.
  EXPECT_TRUE(index->AddShard(Info(11, 100, 200)).ok());
  EXPECT_EQ(router.Lookup(50)->proclet, 10u);
  EXPECT_EQ(router.Lookup(150).status().code(), StatusCode::kOutOfRange);
  f.sim.BlockOn(router.Refresh(ctx));
  EXPECT_EQ(router.Lookup(150)->proclet, 11u);
  EXPECT_EQ(router.Lookup(200).status().code(), StatusCode::kOutOfRange);
}

TEST(ShardRouterTest, InvalidateForcesRefetch) {
  Fixture f;
  Ref<ShardIndexProclet> ref = f.MakeIndex();
  auto* index = f.Get(ref);
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());
  ShardRouter router(ref);
  const Ctx ctx = f.rt->CtxOn(0);
  f.sim.BlockOn(router.Refresh(ctx));
  ASSERT_TRUE(router.Lookup(50).ok());
  EXPECT_TRUE(index->RemoveShard(10).ok());
  EXPECT_TRUE(index->AddShard(Info(20, 0, 100)).ok());
  router.Invalidate();
  EXPECT_TRUE(router.cached_shards().empty());
  f.sim.BlockOn(router.Refresh(ctx));
  EXPECT_EQ(router.Lookup(50)->proclet, 20u);
}

TEST(ShardClientTest, RouteRefreshesToFindNewShards) {
  Fixture f;
  const Ctx ctx = f.rt->CtxOn(0);
  ShardClient client = *f.sim.BlockOn(ShardClient::Create(ctx, ShardedOptions{}));
  auto* index = f.Get(client.index());
  EXPECT_TRUE(index->AddShard(Info(10, 0, 100)).ok());

  // An empty cache: Route pulls the index and hits.
  EXPECT_EQ(client.router().Lookup(50).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(f.sim.BlockOn(client.Route(ctx, 50))->proclet, 10u);

  // A shard added behind the client's back: the cache misses, Route finds it.
  EXPECT_TRUE(index->AddShard(Info(11, 100, 200)).ok());
  EXPECT_EQ(client.router().Lookup(150).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(f.sim.BlockOn(client.Route(ctx, 150))->proclet, 11u);
  EXPECT_EQ(f.sim.BlockOn(client.Route(ctx, 200)).status().code(),
            StatusCode::kOutOfRange);

  // A replaced shard: after Invalidate, Route returns the replacement.
  EXPECT_TRUE(index->RemoveShard(10).ok());
  EXPECT_TRUE(index->AddShard(Info(20, 0, 100)).ok());
  client.router().Invalidate();
  EXPECT_EQ(f.sim.BlockOn(client.Route(ctx, 50))->proclet, 20u);
}

}  // namespace
}  // namespace quicksand

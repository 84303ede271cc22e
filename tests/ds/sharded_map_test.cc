#include "quicksand/ds/sharded_map.h"

#include <gtest/gtest.h>

#include "quicksand/common/bytes.h"

namespace quicksand {
namespace {

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  explicit Fixture(int machines = 2) {
    for (int i = 0; i < machines; ++i) {
      MachineSpec spec;
      spec.cores = 4;
      spec.memory_bytes = 2_GiB;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
  }

  Ctx ctx() { return rt->CtxOn(0); }
};

using StrMap = ShardedMap<std::string, int64_t>;

Task<StrMap> MakeMap(Ctx ctx, StrMap::Options options = {}) {
  auto create = StrMap::Create(ctx, options);
  Result<StrMap> map = co_await std::move(create);
  co_return *map;
}

TEST(ShardedMapTest, PutGetRoundTrip) {
  Fixture f;
  StrMap map = f.sim.BlockOn(MakeMap(f.ctx()));
  EXPECT_TRUE(f.sim.BlockOn(map.Put(f.ctx(), "alpha", 1)).ok());
  EXPECT_TRUE(f.sim.BlockOn(map.Put(f.ctx(), "beta", 2)).ok());
  EXPECT_EQ(*f.sim.BlockOn(map.Get(f.ctx(), "alpha")), 1);
  EXPECT_EQ(*f.sim.BlockOn(map.Get(f.ctx(), "beta")), 2);
}

TEST(ShardedMapTest, GetMissingIsNotFound) {
  Fixture f;
  StrMap map = f.sim.BlockOn(MakeMap(f.ctx()));
  EXPECT_EQ(f.sim.BlockOn(map.Get(f.ctx(), "ghost")).status().code(),
            StatusCode::kNotFound);
}

TEST(ShardedMapTest, PutOverwritesValue) {
  Fixture f;
  StrMap map = f.sim.BlockOn(MakeMap(f.ctx()));
  EXPECT_TRUE(f.sim.BlockOn(map.Put(f.ctx(), "k", 1)).ok());
  EXPECT_TRUE(f.sim.BlockOn(map.Put(f.ctx(), "k", 2)).ok());
  EXPECT_EQ(*f.sim.BlockOn(map.Get(f.ctx(), "k")), 2);
  EXPECT_EQ(*f.sim.BlockOn(map.Size(f.ctx())), 1);
}

TEST(ShardedMapTest, EraseRemovesKey) {
  Fixture f;
  StrMap map = f.sim.BlockOn(MakeMap(f.ctx()));
  EXPECT_TRUE(f.sim.BlockOn(map.Put(f.ctx(), "k", 1)).ok());
  EXPECT_TRUE(f.sim.BlockOn(map.Erase(f.ctx(), "k")).ok());
  EXPECT_EQ(f.sim.BlockOn(map.Get(f.ctx(), "k")).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(f.sim.BlockOn(map.Erase(f.ctx(), "k")).code(), StatusCode::kNotFound);
}

TEST(ShardedMapTest, ContainsReflectsMembership) {
  Fixture f;
  StrMap map = f.sim.BlockOn(MakeMap(f.ctx()));
  EXPECT_TRUE(f.sim.BlockOn(map.Put(f.ctx(), "x", 5)).ok());
  EXPECT_TRUE(*f.sim.BlockOn(map.Contains(f.ctx(), "x")));
  EXPECT_FALSE(*f.sim.BlockOn(map.Contains(f.ctx(), "y")));
}

TEST(ShardedMapTest, SizeAndItemsAcrossManyKeys) {
  Fixture f;
  StrMap map = f.sim.BlockOn(MakeMap(f.ctx()));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(f.sim.BlockOn(map.Put(f.ctx(), "key" + std::to_string(i), i)).ok());
  }
  EXPECT_EQ(*f.sim.BlockOn(map.Size(f.ctx())), 100);
  Result<std::vector<std::pair<std::string, int64_t>>> items =
      f.sim.BlockOn(map.Items(f.ctx()));
  ASSERT_TRUE(items.ok());
  EXPECT_EQ(items->size(), 100u);
  int64_t sum = 0;
  for (const auto& [k, v] : *items) {
    sum += v;
  }
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(ShardedMapTest, HeapAccountingFollowsEntries) {
  Fixture f;
  StrMap map = f.sim.BlockOn(MakeMap(f.ctx()));
  const int64_t before = f.cluster.machine(0).memory().used() +
                         f.cluster.machine(1).memory().used();
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(
        f.sim.BlockOn(map.Put(f.ctx(), "key" + std::to_string(i), i)).ok());
  }
  const int64_t mid = f.cluster.machine(0).memory().used() +
                      f.cluster.machine(1).memory().used();
  EXPECT_GT(mid, before);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(f.sim.BlockOn(map.Erase(f.ctx(), "key" + std::to_string(i))).ok());
  }
  const int64_t after = f.cluster.machine(0).memory().used() +
                        f.cluster.machine(1).memory().used();
  EXPECT_EQ(after, before);
}

TEST(ShardedMapTest, IntKeysWork) {
  Fixture f;
  auto map = *f.sim.BlockOn(ShardedMap<int64_t, std::string>::Create(f.ctx()));
  EXPECT_TRUE(f.sim.BlockOn(map.Put(f.ctx(), 42, std::string("answer"))).ok());
  EXPECT_EQ(*f.sim.BlockOn(map.Get(f.ctx(), 42)), "answer");
}

TEST(ShardedMapTest, KeysProjectingToTheTopOfTheSpaceRoute) {
  // std::hash<int>(-1) and std::hash<uint64_t>(UINT64_MAX) are UINT64_MAX
  // itself, one past every half-open shard range; such keys must still have
  // an owner, before and after a split.
  Fixture f;
  auto ints = *f.sim.BlockOn(ShardedMap<int, int64_t>::Create(f.ctx()));
  for (int key = -2; key < 10; ++key) {
    ASSERT_TRUE(f.sim.BlockOn(ints.Put(f.ctx(), key, key * 10)).ok()) << key;
  }
  EXPECT_EQ(*f.sim.BlockOn(ints.Get(f.ctx(), -1)), -10);
  f.sim.BlockOn(ints.router().Refresh(f.ctx()));
  ASSERT_TRUE(
      f.sim.BlockOn(ints.Split(f.ctx(), ints.router().cached_shards()[0])).ok());
  EXPECT_EQ(*f.sim.BlockOn(ints.Size(f.ctx())), 12);
  for (int key = -2; key < 10; ++key) {
    EXPECT_EQ(*f.sim.BlockOn(ints.Get(f.ctx(), key)), key * 10) << key;
  }

  auto wide = *f.sim.BlockOn(ShardedMap<uint64_t, int64_t>::Create(f.ctx()));
  EXPECT_TRUE(f.sim.BlockOn(wide.Put(f.ctx(), UINT64_MAX, 1)).ok());
  EXPECT_TRUE(f.sim.BlockOn(wide.Put(f.ctx(), UINT64_MAX - 1, 2)).ok());
  EXPECT_EQ(*f.sim.BlockOn(wide.Get(f.ctx(), UINT64_MAX)), 1);
  EXPECT_EQ(*f.sim.BlockOn(wide.Get(f.ctx(), UINT64_MAX - 1)), 2);
}

TEST(ShardedMapTest, EntriesSurviveShardMigration) {
  Fixture f;
  StrMap map = f.sim.BlockOn(MakeMap(f.ctx()));
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(f.sim.BlockOn(map.Put(f.ctx(), "k" + std::to_string(i), i)).ok());
  }
  f.sim.BlockOn(map.router().Refresh(f.ctx()));
  for (const ShardInfo& s : map.router().cached_shards()) {
    EXPECT_TRUE(f.sim.BlockOn(f.rt->Migrate(s.proclet, 1)).ok());
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(*f.sim.BlockOn(map.Get(f.ctx(), "k" + std::to_string(i))), i);
  }
}

TEST(ShardedSetTest, InsertContainsErase) {
  Fixture f;
  auto set = *f.sim.BlockOn(ShardedSet<std::string>::Create(f.ctx()));
  EXPECT_TRUE(f.sim.BlockOn(set.Insert(f.ctx(), "a")).ok());
  EXPECT_TRUE(f.sim.BlockOn(set.Insert(f.ctx(), "b")).ok());
  EXPECT_TRUE(*f.sim.BlockOn(set.Contains(f.ctx(), "a")));
  EXPECT_FALSE(*f.sim.BlockOn(set.Contains(f.ctx(), "c")));
  EXPECT_EQ(*f.sim.BlockOn(set.Size(f.ctx())), 2);
  EXPECT_TRUE(f.sim.BlockOn(set.Erase(f.ctx(), "a")).ok());
  EXPECT_FALSE(*f.sim.BlockOn(set.Contains(f.ctx(), "a")));
}

}  // namespace
}  // namespace quicksand

// Property: a fenced write stream racing shard splits/merges/migrations
// never loses a write and never applies one twice.
//
// A writer drives the frontend with an open stream of keyed Puts (stable
// request ids, retries through the normal budget) while a reshaper fiber
// splits, merges, and migrates shards at random times. Invariants checked
// after draining, across several seeds:
//
//  * conservation — every request is accounted exactly once (ok or failed),
//  * exactly-once — summed ApplyCount over all shards equals the number of
//    successful writes: a write that raced a reshape either bounced and
//    re-applied on the new owner (wrong_shard does not burn the rid) or
//    deduped against the dedup state the payload carried across,
//  * coverage — the surviving ranges partition the hash space, and each
//    written key is owned by exactly one shard, which holds its value.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "quicksand/cluster/fault_injector.h"
#include "quicksand/common/bytes.h"
#include "quicksand/common/random.h"
#include "quicksand/ds/sharded_map.h"
#include "quicksand/ds/sharded_vector.h"
#include "quicksand/serving/kv_frontend.h"

namespace quicksand {
namespace {

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  explicit Fixture(int machines = 4) {
    for (int i = 0; i < machines; ++i) {
      MachineSpec spec;
      spec.cores = 2;
      spec.memory_bytes = 2_GiB;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
  }
};

// Issues `writes` Puts over `key_space` keys at ~`qps`, one fiber each.
Task<> WriterFiber(Simulator& sim, KvFrontend& frontend, Rng& rng,
                   int writes, uint64_t key_space, double qps) {
  const double mean_gap_ns = 1e9 / qps;
  for (int i = 0; i < writes; ++i) {
    co_await sim.Sleep(Duration::Nanos(std::max<int64_t>(
        1, static_cast<int64_t>(rng.NextExponential(mean_gap_ns)))));
    sim.Spawn(frontend.Serve(rng.NextBounded(key_space), /*is_read=*/false),
              "writer_put");
  }
}

// Randomly reshapes while the writer runs: split a random shard, merge a
// random adjacent pair, or migrate a random shard, every 1-3ms.
Task<> ReshaperFiber(Simulator& sim, Runtime& rt, KvFrontend& frontend,
                     Rng& rng, int rounds, int* reshapes_done) {
  for (int i = 0; i < rounds; ++i) {
    co_await sim.Sleep(Duration::Micros(1000 + rng.NextBounded(2000)));
    Ctx ctx = rt.CtxOn(frontend.options().home);
    const size_t n = frontend.shards().size();
    const uint64_t dice = rng.NextBounded(3);
    Status status = Status::Ok();
    if ((dice == 0 && n < 6) || n == 1) {
      const ProcletId donor =
          frontend.shards()[rng.NextBounded(n)].id();
      const Result<uint64_t> point = frontend.SuggestSplitPoint(donor);
      if (!point.ok()) {
        continue;
      }
      const MachineId target =
          1 + static_cast<MachineId>(rng.NextBounded(rt.cluster().size() - 1));
      auto split = frontend.SplitShard(ctx, donor, *point, target);
      status = co_await std::move(split);
    } else if (dice == 1 && n >= 2) {
      const size_t left = rng.NextBounded(n - 1);
      auto merge = frontend.MergeShards(ctx, frontend.shards()[left].id(),
                                        frontend.shards()[left + 1].id());
      status = co_await std::move(merge);
    } else {
      const ProcletId shard = frontend.shards()[rng.NextBounded(n)].id();
      const MachineId target =
          1 + static_cast<MachineId>(rng.NextBounded(rt.cluster().size() - 1));
      auto migrate = frontend.MigrateShard(ctx, shard, target);
      status = co_await std::move(migrate);
    }
    if (status.ok()) {
      ++*reshapes_done;
    }
    // Failures (e.g. a migrate bouncing off its own machine) are fine —
    // the property is about the writes, not the reshape success rate.
  }
}

TEST(ReshapeConsistencyTest, FencedWritesSurviveConcurrentReshaping) {
  constexpr int kWrites = 250;
  constexpr uint64_t kKeySpace = 48;
  int total_reshapes = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Fixture f;
    KvFrontendOptions opt;
    opt.shards = 2;
    opt.max_attempts = 6;  // reshape bounces must not exhaust attempts
    KvFrontend frontend(*f.rt, opt);
    ASSERT_TRUE(f.sim.BlockOn(frontend.Start(f.rt->CtxOn(0))).ok());

    Rng writer_rng(seed);
    Rng reshaper_rng(seed * 7919);
    int reshapes = 0;
    f.sim.Spawn(WriterFiber(f.sim, frontend, writer_rng, kWrites, kKeySpace,
                            /*qps=*/10000.0),
                "writer");
    f.sim.Spawn(ReshaperFiber(f.sim, *f.rt, frontend, reshaper_rng,
                              /*rounds=*/15, &reshapes),
                "reshaper");
    // Writer needs ~25ms, reshaper ~30ms; drain well past both.
    f.sim.RunFor(Duration::Millis(120));

    // Conservation: every offered request accounted exactly once.
    ASSERT_EQ(frontend.offered(), kWrites) << "seed " << seed;
    ASSERT_EQ(frontend.ok_in_slo() + frontend.ok_late() + frontend.failed(),
              frontend.offered())
        << "seed " << seed;
    const int64_t succeeded = frontend.ok_in_slo() + frontend.ok_late();

    // Exactly-once: total apply count == successful writes. A lost write
    // (dropped payload) makes this too small; a double apply (dedup state
    // lost in a reshape) makes it too big.
    int64_t total_applies = 0;
    for (const auto& shard : frontend.shards()) {
      const auto* p = f.rt->UnsafeGet<FencedKvProclet>(shard.id());
      ASSERT_NE(p, nullptr);
      for (uint64_t k = 0; k < kKeySpace; ++k) {
        total_applies += p->ApplyCount(k);
      }
    }
    EXPECT_EQ(total_applies, succeeded) << "seed " << seed;

    // Coverage: ranges partition the hash space...
    const auto shards = frontend.SampleShards(f.sim.Now());
    ASSERT_FALSE(shards.empty());
    EXPECT_EQ(shards.front().range_begin, 0u) << "seed " << seed;
    EXPECT_EQ(shards.back().range_end, UINT64_MAX) << "seed " << seed;
    for (size_t i = 0; i + 1 < shards.size(); ++i) {
      EXPECT_EQ(shards[i].range_end, shards[i + 1].range_begin)
          << "seed " << seed;
    }
    // ...and each key has exactly one owner; a written key's value lives
    // there and nowhere else.
    for (uint64_t k = 0; k < kKeySpace; ++k) {
      int owners = 0;
      int holders = 0;
      for (const auto& shard : frontend.shards()) {
        const auto* p = f.rt->UnsafeGet<FencedKvProclet>(shard.id());
        if (p->Owns(k)) {
          ++owners;
          if (p->Get(k).ok()) {
            ++holders;
          }
        }
      }
      EXPECT_EQ(owners, 1) << "seed " << seed << " key " << k;
      EXPECT_LE(holders, owners) << "seed " << seed << " key " << k;
    }
    total_reshapes += reshapes;
  }
  // The property is vacuous if reshapes never actually interleaved.
  EXPECT_GT(total_reshapes, 10);
}

// Spawn needs a Task<>; this wrapper parks the split's status for the test
// body to assert on after the crash races it.
Task<> DoSplit(KvFrontend& frontend, Ctx ctx, ProcletId donor, uint64_t point,
               MachineId target, Status* out) {
  auto split = frontend.SplitShard(ctx, donor, point, target);
  *out = co_await std::move(split);
}

// Shared setup for the crash-mid-reshape trio: 2 shards, 40 acked writes,
// a delay spike stretching the donor->target copy so a crash scheduled
// ~1ms into the split is guaranteed to land between ExtractUpperRange and
// the payload install on the far side.
struct MidSplitCrash {
  Fixture f;
  FaultInjector faults{f.sim, f.cluster};
  std::unique_ptr<KvFrontend> frontend;
  ProcletId donor = 0;
  ProcletId other = 0;
  MachineId donor_machine = kInvalidMachineId;
  MachineId target = kInvalidMachineId;
  Status split_status = Status::Ok();
  static constexpr uint64_t kKeys = 40;

  explicit MidSplitCrash(bool unsafe_reshape) {
    f.rt->AttachFaultInjector(faults);
    KvFrontendOptions opt;
    opt.shards = 2;
    opt.unsafe_reshape_for_test = unsafe_reshape;
    frontend = std::make_unique<KvFrontend>(*f.rt, opt);
    EXPECT_TRUE(f.sim.BlockOn(frontend->Start(f.rt->CtxOn(0))).ok());
    for (uint64_t k = 0; k < kKeys; ++k) {
      f.sim.BlockOn(frontend->Serve(k, /*is_read=*/false));
    }
    EXPECT_EQ(frontend->failed(), 0);

    donor = frontend->shards()[0].id();
    other = frontend->shards()[1].id();
    donor_machine = f.rt->LocationOf(donor);
    // A host with no shard on it: the split target.
    for (MachineId m = 1; m < f.rt->cluster().size(); ++m) {
      if (m != donor_machine && m != f.rt->LocationOf(other)) {
        target = m;
        break;
      }
    }
    EXPECT_NE(target, kInvalidMachineId);
    faults.ScheduleDelaySpike(f.sim.Now(), donor_machine, target,
                              /*extra=*/Duration::Millis(5),
                              /*duration=*/Duration::Millis(20));
  }

  void StartSplit() {
    const Result<uint64_t> point = frontend->SuggestSplitPoint(donor);
    ASSERT_TRUE(point.ok());
    f.sim.Spawn(DoSplit(*frontend, f.rt->CtxOn(0), donor, *point, target,
                        &split_status),
                "racing_split");
    f.sim.RunFor(Duration::Millis(1));  // gate + extract done, copy in flight
  }
};

TEST(ReshapeCrashSafetyTest, TargetCrashMidCopyRollsBackEveryAckedWrite) {
  MidSplitCrash t(/*unsafe_reshape=*/false);
  t.StartSplit();
  t.faults.FailNow(t.target);
  t.f.sim.RunFor(Duration::Millis(40));

  // The split failed and rolled the extracted range back into the donor:
  // the table looks exactly like the split never happened.
  EXPECT_FALSE(t.split_status.ok());
  EXPECT_EQ(t.frontend->reshape_rollbacks(), 1);
  EXPECT_EQ(t.frontend->shards().size(), 2u);
  EXPECT_TRUE(t.frontend->TableFullyLive());

  // No acked write lost, none double-applied.
  for (uint64_t k = 0; k < MidSplitCrash::kKeys; ++k) {
    int owners = 0;
    for (const auto& shard : t.frontend->shards()) {
      const auto* p = t.f.rt->UnsafeGet<FencedKvProclet>(shard.id());
      ASSERT_NE(p, nullptr);
      if (p->Owns(k)) {
        ++owners;
        EXPECT_TRUE(p->Get(k).ok()) << "key " << k;
        EXPECT_EQ(p->ApplyCount(k), 1) << "key " << k;
      }
    }
    EXPECT_EQ(owners, 1) << "key " << k;
  }
}

// The index-routed structures take the same crash through the same reshape
// engine. Each adapter stores element i as value 10*i and reads every stored
// value back.
using IntVector = ShardedVector<int64_t>;
using IntMap = ShardedMap<int64_t, int64_t>;

Task<Status> Store(IntVector& vec, Ctx ctx, int64_t i) {
  auto push = vec.PushBack(ctx, 10 * i);
  const Result<uint64_t> index = co_await std::move(push);
  co_return index.status();
}
Task<Status> Store(IntMap& map, Ctx ctx, int64_t i) { return map.Put(ctx, i, 10 * i); }

Task<Result<std::vector<int64_t>>> LoadAll(IntVector& vec, Ctx ctx) {
  return vec.GetRange(ctx, 0, 1000);
}
Task<Result<std::vector<int64_t>>> LoadAll(IntMap& map, Ctx ctx) {
  auto scan = map.Items(ctx);
  const Result<std::vector<std::pair<int64_t, int64_t>>> items = co_await std::move(scan);
  if (!items.ok()) {
    co_return items.status();
  }
  std::vector<int64_t> values;
  for (const auto& [key, value] : *items) {
    values.push_back(value);
  }
  co_return values;
}

template <typename Sharded>
Task<> DoDsSplit(Sharded& ds, Ctx ctx, ShardInfo donor, Status* out) {
  auto split = ds.Split(ctx, donor);
  *out = co_await std::move(split);
}

// One shard of 40 acked elements splits toward a host holding neither the
// shard nor the index (best fit picks it once the other hosts' free memory
// is charged away); a delay spike keeps the copy in flight when that host
// crashes ~1ms in.
template <typename Sharded>
void ExpectDsSplitSurvivesTargetCrash() {
  constexpr int64_t kElements = 40;
  Fixture f;
  FaultInjector faults(f.sim, f.cluster);
  f.rt->AttachFaultInjector(faults);
  const Ctx ctx = f.rt->CtxOn(0);
  Sharded ds = *f.sim.BlockOn(Sharded::Create(ctx));
  for (int64_t i = 0; i < kElements; ++i) {
    ASSERT_TRUE(f.sim.BlockOn(Store(ds, ctx, i)).ok());
  }
  f.sim.BlockOn(ds.router().Refresh(ctx));
  ASSERT_EQ(ds.router().cached_shards().size(), 1u);
  const ShardInfo donor = ds.router().cached_shards()[0];
  const MachineId donor_machine = f.rt->LocationOf(donor.proclet);
  MachineId target = kInvalidMachineId;
  for (MachineId m = 1; m < f.cluster.size() && target == kInvalidMachineId; ++m) {
    if (m != donor_machine && m != f.rt->LocationOf(ds.index().id())) {
      target = m;
    }
  }
  ASSERT_NE(target, kInvalidMachineId);
  for (MachineId m = 0; m < f.cluster.size(); ++m) {
    if (m != target) {
      ASSERT_TRUE(f.cluster.machine(m).memory().TryCharge(1_GiB));
    }
  }
  faults.ScheduleDelaySpike(f.sim.Now(), donor_machine, target,
                            /*extra=*/Duration::Millis(5),
                            /*duration=*/Duration::Millis(20));

  Status split_status = Status::Ok();
  f.sim.Spawn(DoDsSplit(ds, ctx, donor, &split_status), "racing_split");
  f.sim.RunFor(Duration::Millis(1));  // gate + extract done, copy in flight
  faults.FailNow(target);
  f.sim.RunFor(Duration::Millis(40));

  // The split failed at the copy (so best fit did pick the crashed host) and
  // the range rolled back into the donor.
  EXPECT_EQ(split_status.code(), StatusCode::kUnavailable) << split_status.ToString();
  EXPECT_FALSE(f.rt->IsLost(donor.proclet));
  // Every acked element is readable, exactly once.
  const Result<std::vector<int64_t>> loaded = f.sim.BlockOn(LoadAll(ds, ctx));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::vector<int64_t> values = *loaded;
  std::sort(values.begin(), values.end());
  ASSERT_EQ(values.size(), static_cast<size_t>(kElements));
  for (int64_t i = 0; i < kElements; ++i) {
    EXPECT_EQ(values[static_cast<size_t>(i)], 10 * i);
  }
  // The index still partitions the key space, and the structure still takes
  // writes (a vector's donor is still its growing tail).
  f.sim.BlockOn(ds.router().Refresh(ctx));
  const std::vector<ShardInfo> shards = ds.router().cached_shards();
  ASSERT_FALSE(shards.empty());
  EXPECT_EQ(shards.front().begin, 0u);
  EXPECT_EQ(shards.back().end, UINT64_MAX);
  for (size_t i = 0; i + 1 < shards.size(); ++i) {
    EXPECT_EQ(shards[i].end, shards[i + 1].begin);
  }
  EXPECT_TRUE(f.sim.BlockOn(Store(ds, ctx, kElements)).ok());
}

TEST(ReshapeCrashSafetyTest, VectorTargetCrashMidCopyRollsBackEveryAckedElement) {
  ExpectDsSplitSurvivesTargetCrash<IntVector>();
}

TEST(ReshapeCrashSafetyTest, MapTargetCrashMidCopyRollsBackEveryAckedEntry) {
  ExpectDsSplitSurvivesTargetCrash<IntMap>();
}

TEST(ReshapeCrashSafetyTest, DonorCrashMidCopyDiscardsOrphanAndRepairs) {
  // A donor crash alone does not lose the payload: the bytes left the NIC
  // before the host died, so the copy delivers and the split completes
  // (the fabric checks only the DESTINATION at delivery). The discard path
  // needs the copy to fail with the rollback target already gone — crash
  // the target mid-copy (copy fails), then the donor (rollback impossible).
  MidSplitCrash t(/*unsafe_reshape=*/false);
  t.StartSplit();
  t.faults.FailNow(t.target);
  t.f.sim.RunFor(Duration::Millis(1));
  t.faults.FailNow(t.donor_machine);
  t.f.sim.RunFor(Duration::Millis(40));

  // The donor died with its data — that loss is legal (no replication) —
  // but the orphan half must be fence-aborted, not installed: installing
  // it would resurrect a stale fragment of a dead shard.
  EXPECT_FALSE(t.split_status.ok());
  EXPECT_EQ(t.frontend->reshape_payload_discards(), 1);
  EXPECT_EQ(t.frontend->reshape_rollbacks(), 0);

  // RepairLostShards replaces the dead routing entry with a fresh empty
  // shard; the table must return to fully live.
  for (int i = 0; i < 10 && !t.frontend->TableFullyLive(); ++i) {
    t.f.sim.BlockOn(t.frontend->RepairLostShards(t.f.rt->CtxOn(0)));
    t.f.sim.RunFor(Duration::Millis(3));
  }
  EXPECT_TRUE(t.frontend->TableFullyLive());
  EXPECT_GE(t.frontend->repairs(), 1);

  // Coverage: the surviving ranges still partition the hash space.
  const auto shards = t.frontend->SampleShards(t.f.sim.Now());
  ASSERT_FALSE(shards.empty());
  EXPECT_EQ(shards.front().range_begin, 0u);
  EXPECT_EQ(shards.back().range_end, UINT64_MAX);
  for (size_t i = 0; i + 1 < shards.size(); ++i) {
    EXPECT_EQ(shards[i].range_end, shards[i + 1].range_begin);
  }

  // Keys owned by the untouched shard survive exactly once.
  const auto* survivor = t.f.rt->UnsafeGet<FencedKvProclet>(t.other);
  ASSERT_NE(survivor, nullptr);
  int survivor_keys = 0;
  for (uint64_t k = 0; k < MidSplitCrash::kKeys; ++k) {
    if (survivor->Owns(k)) {
      ++survivor_keys;
      EXPECT_TRUE(survivor->Get(k).ok()) << "key " << k;
      EXPECT_EQ(survivor->ApplyCount(k), 1) << "key " << k;
    }
  }
  EXPECT_GT(survivor_keys, 0);
}

TEST(ReshapeCrashSafetyTest, UnsafeModeDemonstratesTheLossTheseTestsPin) {
  // Teeth check: with the pre-hardening blind install, the same crash
  // vaporizes the extracted range — acked writes and all. If this test
  // ever starts passing the full-presence assertion, the unsafe path has
  // quietly stopped reproducing the bug and the hardened tests above have
  // lost their witness.
  MidSplitCrash t(/*unsafe_reshape=*/true);
  t.StartSplit();
  t.faults.FailNow(t.target);
  t.f.sim.RunFor(Duration::Millis(40));

  EXPECT_EQ(t.frontend->reshape_rollbacks(), 0);
  int64_t live_applies = 0;
  for (const auto& shard : t.frontend->shards()) {
    if (t.f.rt->IsLost(shard.id())) {
      continue;  // the limbo corpse the blind install "succeeded" into
    }
    const auto* p = t.f.rt->UnsafeGet<FencedKvProclet>(shard.id());
    if (p == nullptr) {
      continue;
    }
    for (uint64_t k = 0; k < MidSplitCrash::kKeys; ++k) {
      live_applies += p->ApplyCount(k);
    }
  }
  // Strictly fewer applies than acked writes: data went missing.
  EXPECT_LT(live_applies, static_cast<int64_t>(MidSplitCrash::kKeys));
}

}  // namespace
}  // namespace quicksand

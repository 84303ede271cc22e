// ReshapableShardSet: the contract between a sharded serving tier and the
// autoscale control loop.
//
// The autoscaler never touches serving internals — it observes per-shard
// load through SampleShards and steers through four verbs: split a hot
// shard, merge cold neighbors, migrate a shard wholesale, and ask the set
// where a split should cut. Anything that owns a set of range-partitioned
// proclets can implement this and inherit the whole control loop; KvFrontend
// does, running its split and merge verbs through the reshape engine
// (sharding/reshape.h) that ShardedVector and ShardedMap share.
//
// Contract details the executor depends on:
//
//  * reshape verbs are synchronous with routing: when SplitShard returns Ok,
//    the set already routes the moved range to the new shard — a racing
//    request sees at worst one wrong_shard bounce, never a lost write,
//  * verbs fail with FailedPrecondition rather than blocking when the shard
//    cannot be reshaped (durable/replicated shards are pinned, ranges too
//    narrow to cut),
//  * SampleShards counters are cumulative, so the collector can difference
//    them at its own cadence.

#ifndef QUICKSAND_AUTOSCALE_SHARD_SET_H_
#define QUICKSAND_AUTOSCALE_SHARD_SET_H_

#include <cstdint>
#include <vector>

#include "quicksand/cluster/metrics.h"
#include "quicksand/runtime/runtime.h"

namespace quicksand {

class ReshapableShardSet {
 public:
  virtual ~ReshapableShardSet() = default;

  // Point-in-time per-shard load and placement, ascending by range_begin.
  virtual std::vector<ShardServingSample> SampleShards(SimTime now) const = 0;

  // A hash strictly inside `shard`'s range that balances its recent load
  // (median of recently routed hashes when known, range midpoint otherwise).
  virtual Result<uint64_t> SuggestSplitPoint(ProcletId shard) const = 0;

  // Splits [split_point, end) out of `shard` into a new shard on `target`.
  virtual Task<Status> SplitShard(Ctx ctx, ProcletId shard,
                                  uint64_t split_point, MachineId target) = 0;

  // Merges `right` into `left`; the two must be range-adjacent.
  virtual Task<Status> MergeShards(Ctx ctx, ProcletId left,
                                   ProcletId right) = 0;

  // Moves `shard` wholesale to `target`.
  virtual Task<Status> MigrateShard(Ctx ctx, ProcletId shard,
                                    MachineId target) = 0;

  // Machine the frontend itself runs on — never a reshape target.
  virtual MachineId home() const = 0;
};

}  // namespace quicksand

#endif  // QUICKSAND_AUTOSCALE_SHARD_SET_H_

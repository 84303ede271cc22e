// Size-triggered split/merge for sharded data structures (§3.3).
//
// "Quicksand enforces a maximum size based on a target migration latency. If
// a shard becomes oversized, Quicksand splits it into two shards by invoking
// a data-structure-specific split function. [...] Quicksand can respond by
// invoking a data-structure-specific merge function to combine the adjacent
// shards into a single memory proclet."
//
// MaintainShards is the policy: one pass, run periodically by the
// AdaptiveController, over a ShardedVector or ShardedMap. The mechanism is
// the shared reshape engine (sharding/reshape.h), reached through the
// structure's Split/Merge. Splits and merges close the affected shards'
// invocation gates for their (short) duration; clients that race see
// kOutOfRange and refresh their routers.

#ifndef QUICKSAND_ADAPT_SHARD_MAINTENANCE_H_
#define QUICKSAND_ADAPT_SHARD_MAINTENANCE_H_

#include <vector>

#include "quicksand/ds/sharded_map.h"
#include "quicksand/ds/sharded_vector.h"

namespace quicksand {

struct ShardMaintenanceStats {
  int64_t splits = 0;
  int64_t merges = 0;
  int64_t failed = 0;
};

// One maintenance pass: split oversized shards, merge adjacent undersized
// ones. A vector merges only sealed shards: the growing tail stays put.
template <typename Sharded>
Task<> MaintainShards(Ctx ctx, Sharded sharded, int64_t max_bytes, int64_t min_bytes,
                      ShardMaintenanceStats* stats = nullptr) {
  using Shard = typename Sharded::Shard;
  Runtime& rt = *ctx.rt;
  co_await sharded.router().Refresh(ctx);
  const std::vector<ShardInfo> shards = sharded.router().cached_shards();
  const auto mergeable = [min_bytes](const Shard* s) {
    if (s == nullptr || s->gate_closed() || s->durable() || s->data_bytes() >= min_bytes) {
      return false;
    }
    if constexpr (requires { s->sealed(); }) {
      return s->sealed();
    }
    return true;
  };

  for (size_t i = 0; i < shards.size(); ++i) {
    auto* shard = rt.UnsafeGet<Shard>(shards[i].proclet);
    // Durable shards are pinned (the engine refuses them too).
    if (shard == nullptr || shard->gate_closed() || shard->durable()) {
      continue;
    }
    if (shard->data_bytes() > max_bytes && shard->count() >= 2) {
      auto split = sharded.Split(ctx, shards[i]);
      Status s = co_await std::move(split);
      if (stats != nullptr) {
        s.ok() ? ++stats->splits : ++stats->failed;
      }
      continue;
    }
    if (i + 1 < shards.size() && shards[i].end == shards[i + 1].begin) {
      auto* next = rt.UnsafeGet<Shard>(shards[i + 1].proclet);
      if (mergeable(shard) && mergeable(next) &&
          shard->data_bytes() + next->data_bytes() <= max_bytes) {
        auto merge = sharded.Merge(ctx, shards[i], shards[i + 1]);
        Status s = co_await std::move(merge);
        if (stats != nullptr) {
          s.ok() ? ++stats->merges : ++stats->failed;
        }
      }
    }
  }
}

}  // namespace quicksand

#endif  // QUICKSAND_ADAPT_SHARD_MAINTENANCE_H_

// ShardClient: the client half of the sharding library (§3.2), shared by
// ShardedVector and ShardedMap.
//
// It holds what a sharded structure's handle needs to reach its shards: the
// index proclet, a cached ShardRouter over it, and the structure's options
// (shard sizing and durability). Operations go through one routed-call
// helper, Call: route the key through the cache, invoke the owning shard,
// and retry through the three ways a route goes stale —
//
//  * the shard is gone (merged away): invalidate the cache, route again,
//  * the shard is lost to a machine failure: invalidate, stall while the
//    recovery subsystem restores it (options.restore_stall), route again —
//    or report DataLoss for its range when it cannot come back,
//  * the shard answers OutOfRange (it no longer owns the key after a split
//    or merge): invalidate, route again. A structure whose last shard is
//    open-ended (the vector's tail) asks for that shard's OutOfRange to be
//    the answer instead: the key is past the end.
//
// Split and Merge run the shared reshape engine (sharding/reshape.h) with a
// commit that updates the index in a single call.

#ifndef QUICKSAND_SHARDING_SHARD_CLIENT_H_
#define QUICKSAND_SHARDING_SHARD_CLIENT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "quicksand/common/bytes.h"
#include "quicksand/common/status.h"
#include "quicksand/durability/checkpoint_manager.h"
#include "quicksand/durability/replication.h"
#include "quicksand/runtime/runtime.h"
#include "quicksand/sharding/reshape.h"
#include "quicksand/sharding/shard_index.h"

namespace quicksand {

// Options of an index-routed sharded structure.
struct ShardedOptions {
  // Shard size cap, derived from the target migration latency (§3.3).
  int64_t max_shard_bytes = 16 * kMiB;
  // Initial heap charge per shard proclet (metadata).
  int64_t shard_base_bytes = 4096;
  // Durability (optional; not owned). When replication is set every new
  // shard and the index get a primary-backup replica; otherwise, when
  // checkpoints is set, they get periodic checkpoints. Either way a lost
  // shard becomes a bounded stall (restore_stall) while the
  // RecoveryCoordinator restores it, instead of an immediate DataLoss.
  ReplicationManager* replication = nullptr;
  CheckpointManager* checkpoints = nullptr;
  Duration restore_stall = Duration::Millis(50);
};

namespace internal {

// A shard reply with room for a routing failure: Status and Result<T>
// already have it, anything else is wrapped in a Result.
template <typename R>
struct Routed {
  using type = Result<R>;
};
template <>
struct Routed<Status> {
  using type = Status;
};
template <typename T>
struct Routed<Result<T>> {
  using type = Result<T>;
};

template <typename Shard, typename Fn>
using RoutedReply =
    typename Routed<typename UnwrapTask<std::invoke_result_t<Fn, Shard&>>::type>::type;

inline Status StatusOf(const Status& s) { return s; }
template <typename T>
Status StatusOf(const Result<T>& r) {
  return r.status();
}

}  // namespace internal

class ShardClient {
 public:
  // Attempts per operation before it gives up with Aborted.
  static constexpr int kMaxAttempts = 16;

  ShardClient() = default;

  // Creates the index proclet of a new structure. It is not yet registered
  // with the durability service: callers ProtectNew it in their own order.
  static Task<Result<ShardClient>> Create(Ctx ctx, ShardedOptions options);

  Ref<ShardIndexProclet> index() const { return router_.index(); }
  ShardRouter& router() { return router_; }
  const ShardedOptions& options() const { return options_; }

  // Registers a freshly created proclet with the configured durability
  // service (replication preferred over checkpoints when both are set).
  template <typename P>
  Task<Status> ProtectNew(Ctx ctx, ProcletId id) {
    if (options_.replication != nullptr) {
      co_return co_await options_.replication->template ReplicateAs<P>(ctx, id);
    }
    if (options_.checkpoints != nullptr) {
      co_return co_await options_.checkpoints->template ProtectAs<P>(ctx, id);
    }
    co_return Status::Ok();
  }

  // Bounded stall while the recovery subsystem restores a lost proclet;
  // false when recovery is off or the deadline passes.
  Task<bool> AwaitRestore(Ctx ctx, ProcletId id);

  // Router refresh, and refresh-then-lookup, that survive a lost index
  // proclet: they stall for its restore, then re-pull. DataLoss only when
  // recovery cannot bring the index back. A key no shard covers is
  // OutOfRange. (The cache-hit fast path is Call's.)
  Task<Status> Refresh(Ctx ctx);
  Task<Result<ShardInfo>> Route(Ctx ctx, uint64_t key);

  // Applies `edit` at the index proclet. Unavailable when the index was lost
  // and restored meanwhile (the edit may not have applied); DataLoss when it
  // cannot come back.
  Task<Status> EditIndex(Ctx ctx, std::function<Status(ShardIndexProclet&)> edit);

  // One call to the shard `info` names. Empty when the call must be routed
  // again: the shard is gone, or it was lost and has been restored. DataLoss
  // when it was lost for good.
  template <typename Shard, typename Fn>
  auto CallOnce(Ctx ctx, ShardInfo info, Fn fn, int64_t request_bytes = 0)
      -> Task<std::optional<internal::RoutedReply<Shard, Fn>>> {
    Ref<Shard> shard(ctx.rt, info.proclet);
    auto call = shard.Call(ctx, std::move(fn), request_bytes);
    try {
      co_return co_await std::move(call);
    } catch (const ProcletGoneError&) {
      router_.Invalidate();
      co_return std::nullopt;
    } catch (const ProcletLostError&) {
      router_.Invalidate();  // co_await is illegal in a handler; stall below
    }
    auto restore = AwaitRestore(ctx, info.proclet);
    if (!co_await std::move(restore)) {
      co_return Status::DataLoss(LostMessage(info));
    }
    co_return std::nullopt;
  }

  // The routed-call helper: invokes `fn` on the shard owning `key`, retrying
  // through stale routes (see the file comment). With `past_end_is_answer`,
  // OutOfRange from the shard whose range ends at UINT64_MAX is returned.
  // `routed`, when given, receives the index entry of the shard that replied.
  template <typename Shard, typename Fn>
  auto Call(Ctx ctx, uint64_t key, Fn fn, int64_t request_bytes = 0,
            bool past_end_is_answer = false, ShardInfo* routed = nullptr)
      -> Task<internal::RoutedReply<Shard, Fn>> {
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      // A cache hit needs no coroutine frame; only a miss asks the index.
      Result<ShardInfo> info = router_.Lookup(key);
      if (!info.ok()) {
        auto route = Route(ctx, key);
        info = co_await std::move(route);
        if (!info.ok()) {
          co_return info.status();
        }
      }
      auto once = CallOnce<Shard>(ctx, *info, fn, request_bytes);
      auto reply = co_await std::move(once);
      if (!reply.has_value()) {
        continue;
      }
      if (internal::StatusOf(*reply).code() == StatusCode::kOutOfRange &&
          !(past_end_is_answer && info->end == UINT64_MAX)) {
        router_.Invalidate();  // stale route after a split or merge
        continue;
      }
      if (routed != nullptr) {
        *routed = *info;
      }
      co_return std::move(*reply);
    }
    co_return Status::Aborted("too many routing retries");
  }

  // Invokes `fn` on every shard of one index snapshot, in range order. A
  // shard that vanishes or is restored mid-scan restarts the scan from a
  // fresh snapshot, so no range is counted twice.
  template <typename Shard, typename Fn>
  auto Scan(Ctx ctx, Fn fn) -> Task<Result<std::vector<
      typename internal::UnwrapTask<std::invoke_result_t<Fn, Shard&>>::type>>> {
    using R = typename internal::UnwrapTask<std::invoke_result_t<Fn, Shard&>>::type;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      auto refresh = Refresh(ctx);
      const Status refreshed = co_await std::move(refresh);
      if (!refreshed.ok()) {
        co_return refreshed;
      }
      const std::vector<ShardInfo> shards = router_.cached_shards();
      std::vector<R> replies;
      for (const ShardInfo& info : shards) {
        auto once = CallOnce<Shard>(ctx, info, fn);
        auto reply = co_await std::move(once);
        if (!reply.has_value()) {
          break;
        }
        if (!reply->ok()) {
          co_return reply->status();
        }
        replies.push_back(std::move(**reply));
      }
      if (replies.size() == shards.size()) {
        co_return replies;
      }
    }
    co_return Status::Aborted("too many scan retries");
  }

  // Splits `donor` at its shard's median onto a best-fit machine, and merges
  // adjacent `right` into `left`, through the reshape engine. The commit
  // checks that the index still holds the shards as the caller saw them and
  // then edits it in one call, so a stale snapshot fails and rolls back.
  template <typename Shard>
  Task<Status> Split(Ctx ctx, ShardInfo donor) {
    PlacementRequest placement;
    placement.heap_bytes = options_.shard_base_bytes;
    auto split = SplitRange<Shard>(
        ctx, donor.proclet, [](const Shard& s) { return s.MedianSplitPoint(); },
        placement,
        [this, ctx, donor](Shard& left, Shard& right, int64_t moved) -> Task<Status> {
          const ShardInfo shrunk{donor.proclet, donor.begin, right.range_begin(),
                                 left.count(), left.data_bytes()};
          const ShardInfo added{right.id(), right.range_begin(), donor.end,
                                right.count(), right.data_bytes()};
          auto edit = EditIndex(ctx, [donor, shrunk, added](ShardIndexProclet& p) {
            if (!p.Holds(donor)) {
              return Status::FailedPrecondition("donor's index entry changed");
            }
            const Status s = p.UpdateShard(shrunk);
            return s.ok() ? p.AddShard(added) : s;
          });
          const Status committed = co_await std::move(edit);
          if (committed.ok()) {
            TraceReshape(ctx, left, TraceOp::kSplit, moved);
          }
          co_return committed;
        });
    co_return co_await std::move(split);
  }

  template <typename Shard>
  Task<Status> Merge(Ctx ctx, ShardInfo left, ShardInfo right) {
    if (left.end != right.begin) {
      co_return Status::InvalidArgument("shards are not adjacent");
    }
    auto merge = MergeRanges<Shard>(
        ctx, left.proclet, right.proclet,
        [this, ctx, left, right](Shard& survivor, Shard&, int64_t moved) -> Task<Status> {
          const ShardInfo widened{left.proclet, left.begin, right.end,
                                  survivor.count(), survivor.data_bytes()};
          auto edit = EditIndex(ctx, [left, right, widened](ShardIndexProclet& p) {
            if (!p.Holds(left) || !p.Holds(right)) {
              return Status::FailedPrecondition("merged shards' index entries changed");
            }
            const Status s = p.RemoveShard(right.proclet);
            return s.ok() ? p.UpdateShard(widened) : s;
          });
          const Status committed = co_await std::move(edit);
          if (committed.ok()) {
            TraceReshape(ctx, survivor, TraceOp::kMerge, moved);
          }
          co_return committed;
        });
    co_return co_await std::move(merge);
  }

 private:
  ShardClient(Ref<ShardIndexProclet> index, ShardedOptions options)
      : router_(index), options_(options) {}

  static void TraceReshape(Ctx ctx, const ProcletBase& shard, TraceOp op,
                           int64_t moved_bytes);
  // Names the range that died with a machine, instead of retrying forever.
  static std::string LostMessage(const ShardInfo& info);

  ShardRouter router_;
  ShardedOptions options_;
};

}  // namespace quicksand

#endif  // QUICKSAND_SHARDING_SHARD_CLIENT_H_

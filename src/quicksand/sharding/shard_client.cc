#include "quicksand/sharding/shard_client.h"

namespace quicksand {

Task<Result<ShardClient>> ShardClient::Create(Ctx ctx, ShardedOptions options) {
  PlacementRequest index_req;
  index_req.heap_bytes = options.shard_base_bytes;
  auto create_index = ctx.rt->Create<ShardIndexProclet>(ctx, index_req);
  Result<Ref<ShardIndexProclet>> index = co_await std::move(create_index);
  if (!index.ok()) {
    co_return index.status();
  }
  co_return ShardClient(*index, options);
}

Task<bool> ShardClient::AwaitRestore(Ctx ctx, ProcletId id) {
  if (!ctx.rt->recovery_enabled()) {
    co_return false;
  }
  co_return co_await ctx.rt->AwaitRestore(id, options_.restore_stall);
}

Task<Status> ShardClient::Refresh(Ctx ctx) {
  for (int i = 0; i < kMaxAttempts; ++i) {
    bool index_lost = false;
    try {
      co_await router_.Refresh(ctx);
    } catch (const ProcletGoneError&) {
      co_return Status::NotFound("shard index destroyed");
    } catch (const ProcletLostError&) {
      router_.Invalidate();
      index_lost = true;
    }
    if (!index_lost) {
      co_return Status::Ok();
    }
    auto restore = AwaitRestore(ctx, index().id());
    if (!co_await std::move(restore)) {
      co_return Status::DataLoss("shard index lost to a machine failure");
    }
  }
  co_return Status::Aborted("too many index refresh retries");
}

Task<Result<ShardInfo>> ShardClient::Route(Ctx ctx, uint64_t key) {
  auto refresh = Refresh(ctx);
  const Status refreshed = co_await std::move(refresh);
  if (!refreshed.ok()) {
    co_return refreshed;
  }
  co_return router_.Lookup(key);
}

Task<Status> ShardClient::EditIndex(Ctx ctx,
                                    std::function<Status(ShardIndexProclet&)> edit) {
  auto call = index().Call(ctx, [edit](ShardIndexProclet& p) -> Task<Status> {
    co_return edit(p);
  });
  try {
    co_return co_await std::move(call);
  } catch (const ProcletGoneError&) {
    co_return Status::NotFound("shard index destroyed");
  } catch (const ProcletLostError&) {
    router_.Invalidate();
  }
  auto restore = AwaitRestore(ctx, index().id());
  if (!co_await std::move(restore)) {
    co_return Status::DataLoss("shard index lost to a machine failure");
  }
  co_return Status::Unavailable("shard index restored during the edit; retry");
}

void ShardClient::TraceReshape(Ctx ctx, const ProcletBase& shard, TraceOp op,
                               int64_t moved_bytes) {
  if (Tracer* tracer = ctx.rt->tracer()) {
    tracer->Instant(ctx.trace, shard.location(), op, shard.id(), moved_bytes);
  }
}

std::string ShardClient::LostMessage(const ShardInfo& info) {
  const std::string end =
      info.end == UINT64_MAX ? std::string("end") : std::to_string(info.end);
  return "shard range [" + std::to_string(info.begin) + ", " + end +
         ") lost to a machine failure";
}

}  // namespace quicksand

// The reshape engine: one crash-safe split and one crash-safe merge for
// every range-sharded structure (§3.3).
//
// "If a shard becomes oversized, Quicksand splits it into two shards by
// invoking a data-structure-specific split function. [...] Quicksand can
// respond by invoking a data-structure-specific merge function to combine
// the adjacent shards into a single memory proclet."
//
// The data-structure-specific part is a set of hooks with the same
// signatures on every shard type (VectorShardProclet, MapShardProclet,
// FencedKvProclet), called only under a closed maintenance gate:
//
//   SplitPayload ExtractUpperRange(uint64_t split_point)  // keep [begin, split)
//   SplitPayload ExtractAll()                             // merge donor empties
//   Status AdoptPayload(SplitPayload&&)        // take exactly the payload's range
//   Status AbsorbRightNeighbor(SplitPayload&&)  // extend to the payload's end
//
// plus range_begin()/range_end(). A payload carries its own [range_begin,
// range_end) and its wire size (total_bytes); the install hooks leave it
// untouched when they fail, so it can always be put back.
//
// Everything else lives here, once: the gates, the durable-shard refusal,
// extraction, shard creation, the copy with bounded retries, adoption, the
// rollback, and the routing commit. Reshapes are CRASH-SAFE: an extracted
// payload is never dropped until it is installed somewhere. If the
// destination dies mid-copy (or the copy never arrives), the payload rolls
// back into the shard it came from and the orphan shard is destroyed before
// anything routed to it. Only when the rollback target itself is lost is the
// payload discarded: its bytes were resident on the dead machine and died
// with it, exactly as if no reshape had been running.
//
// The commit is the one step that differs by caller, so it is a callback. It
// runs while both gates are still closed, so a racing request sees at worst
// one stale-route bounce: KvFrontend edits its range table, ShardedVector
// and ShardedMap update their ShardIndexProclet (sharding/shard_client.h). A
// failed commit rolls the reshape back.

#ifndef QUICKSAND_SHARDING_RESHAPE_H_
#define QUICKSAND_SHARDING_RESHAPE_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "quicksand/common/status.h"
#include "quicksand/runtime/runtime.h"

namespace quicksand {

// Rollback accounting a caller may keep (KvFrontend exports both).
struct ReshapeCounters {
  // Payloads returned to their source after a failed install leg.
  int64_t rollbacks = 0;
  // Payloads discarded because the shard they had to return to was lost.
  int64_t payload_discards = 0;
};

// RAII helper: reopens a maintenance gate on scope exit.
class MaintenanceGuard {
 public:
  MaintenanceGuard(Runtime& rt, ProcletId id) : rt_(&rt), id_(id) {}
  MaintenanceGuard(const MaintenanceGuard&) = delete;
  MaintenanceGuard& operator=(const MaintenanceGuard&) = delete;
  ~MaintenanceGuard() { Release(); }

  void Release() {
    if (rt_ != nullptr) {
      std::exchange(rt_, nullptr)->EndMaintenance(id_);
    }
  }

 private:
  Runtime* rt_;
  ProcletId id_;
};

// The routing commit: (donor, new shard) after a split, (survivor, emptied
// right shard) after a merge, and the bytes the reshape moved.
template <typename Shard>
using ReshapeCommit =
    std::function<Task<Status>(Shard& left, Shard& right, int64_t moved_bytes)>;

namespace internal {

// Ships `bytes` from `src` to `dst` with bounded retries; true when a full
// copy arrived while both endpoints were still up.
Task<bool> CopyPayload(Runtime& rt, MachineId src, MachineId dst, int64_t bytes);

// Installs a payload back into the shard it was extracted from
// (AbsorbRightNeighbor when `adjacent`, AdoptPayload otherwise), retrying
// memory pressure but giving up the moment the shard is lost: its host
// crashed, so the payload's bytes died where they lived. Never leaves the
// payload half-installed.
template <typename Shard>
Task<Status> RestorePayload(Runtime& rt, Shard* shard, bool adjacent,
                            typename Shard::SplitPayload&& payload,
                            ReshapeCounters* counters) {
  // Loss is re-checked on every iteration: a lost proclet ACCEPTS heap
  // charges without accounting (so callers' rollback invariants hold), which
  // means a blind retry loop would "succeed" against the limbo corpse and
  // silently drop the payload.
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (shard->lost()) {
      break;
    }
    const Status installed = adjacent
                                 ? shard->AbsorbRightNeighbor(std::move(payload))
                                 : shard->AdoptPayload(std::move(payload));
    if (installed.code() != StatusCode::kResourceExhausted) {
      if (installed.ok() && counters != nullptr) {
        ++counters->rollbacks;
      }
      co_return installed;
    }
    co_await rt.sim().Sleep(Duration::Millis(1));
  }
  if (counters != nullptr) {
    ++counters->payload_discards;
  }
  co_return Status::DataLoss(
      "rollback target lost; the extracted range died with its host");
}

}  // namespace internal

// Splits `donor_id` at the point `pick` chooses for it (called under the
// closed gate), moving [split, end) into a new shard created with
// `placement`. `unsafe` skips the did-the-copy-arrive check, a blind install
// that loses the range when the target dies mid-copy; it exists only so
// tests can show that the chaos oracles catch that loss.
template <typename Shard>
Task<Status> SplitRange(Ctx ctx, ProcletId donor_id,
                        std::function<Result<uint64_t>(const Shard&)> pick,
                        PlacementRequest placement, ReshapeCommit<Shard> commit,
                        ReshapeCounters* counters = nullptr, bool unsafe = false) {
  Runtime& rt = *ctx.rt;
  auto gate = rt.BeginMaintenance(donor_id);
  const Status gated = co_await std::move(gate);
  if (!gated.ok()) {
    co_return gated;
  }
  MaintenanceGuard donor_guard(rt, donor_id);
  auto* donor = rt.UnsafeGet<Shard>(donor_id);
  QS_CHECK(donor != nullptr);
  // Durable shards are pinned: reshape mutates them via UnsafeGet, bypassing
  // the mutation log, and a pre-split checkpoint restored after a split
  // would resurrect an overlapping range.
  if (donor->durable()) {
    co_return Status::FailedPrecondition("durable shards are pinned");
  }
  const Result<uint64_t> split = pick(*donor);
  if (!split.ok()) {
    co_return split.status();
  }
  if (*split <= donor->range_begin() || *split >= donor->range_end()) {
    co_return Status::InvalidArgument("split point outside the range");
  }
  const MachineId source = donor->location();
  typename Shard::SplitPayload payload = donor->ExtractUpperRange(*split);
  // From here on the payload OWNS the upper range: every exit below must
  // install it somewhere (the new shard, or back into the donor) or account
  // its loss to the crash of the machine it was resident on.
  auto create = rt.Create<Shard>(ctx, placement);
  Result<Ref<Shard>> created = co_await std::move(create);
  if (!created.ok()) {
    auto rollback = internal::RestorePayload(rt, donor, /*adjacent=*/true,
                                             std::move(payload), counters);
    const Status rolled_back = co_await std::move(rollback);
    co_return rolled_back.ok() ? created.status() : rolled_back;
  }
  auto gate_fresh = rt.BeginMaintenance(created->id());
  const Status fresh_gated = co_await std::move(gate_fresh);
  if (!fresh_gated.ok()) {
    // The new shard died (or vanished) before anything routed to it; just
    // put the entries back.
    auto rollback = internal::RestorePayload(rt, donor, /*adjacent=*/true,
                                             std::move(payload), counters);
    const Status rolled_back = co_await std::move(rollback);
    co_return rolled_back.ok() ? fresh_gated : rolled_back;
  }
  MaintenanceGuard fresh_guard(rt, created->id());
  auto* fresh = rt.UnsafeGet<Shard>(created->id());
  QS_CHECK(fresh != nullptr);

  const int64_t moved = payload.total_bytes;
  auto copy = internal::CopyPayload(rt, source, fresh->location(), moved);
  const bool arrived = co_await std::move(copy);
  Status failed = Status::Ok();
  if (!unsafe && (!arrived || fresh->lost())) {
    // The new shard never held a full copy: its machine died mid-copy, or
    // the fabric gave up.
    failed = Status::Unavailable("split target failed during the copy");
  } else {
    failed = fresh->AdoptPayload(std::move(payload));  // may be out of memory
    if (failed.ok()) {
      auto route = commit(*donor, *fresh, moved);
      failed = co_await std::move(route);
      if (failed.ok()) {
        co_return Status::Ok();
      }
      payload = fresh->ExtractAll();  // routing never learned of the new shard
    }
  }
  // Destroy the orphan (nothing routes to it, so this strands nothing) and
  // roll the entries back into the donor.
  fresh_guard.Release();
  auto destroy = rt.Destroy(ctx, created->id());
  (void)co_await std::move(destroy);
  auto rollback = internal::RestorePayload(rt, donor, /*adjacent=*/true,
                                           std::move(payload), counters);
  const Status rolled_back = co_await std::move(rollback);
  co_return rolled_back.ok() ? failed : rolled_back;
}

// Merges `right_id` into `left_id`; their ranges must be adjacent. The right
// shard is destroyed once the commit succeeds.
template <typename Shard>
Task<Status> MergeRanges(Ctx ctx, ProcletId left_id, ProcletId right_id,
                         ReshapeCommit<Shard> commit,
                         ReshapeCounters* counters = nullptr, bool unsafe = false) {
  Runtime& rt = *ctx.rt;
  auto gate_left = rt.BeginMaintenance(left_id);
  Status gated = co_await std::move(gate_left);
  if (!gated.ok()) {
    co_return gated;
  }
  MaintenanceGuard left_guard(rt, left_id);
  auto gate_right = rt.BeginMaintenance(right_id);
  gated = co_await std::move(gate_right);
  if (!gated.ok()) {
    co_return gated;
  }
  MaintenanceGuard right_guard(rt, right_id);
  auto* left = rt.UnsafeGet<Shard>(left_id);
  auto* right = rt.UnsafeGet<Shard>(right_id);
  QS_CHECK(left != nullptr && right != nullptr);
  if (left->durable() || right->durable()) {
    co_return Status::FailedPrecondition("durable shards are pinned");
  }
  const uint64_t boundary = left->range_end();
  if (boundary != right->range_begin()) {
    co_return Status::FailedPrecondition("shards not contiguous");
  }
  const MachineId source = right->location();
  typename Shard::SplitPayload payload = right->ExtractAll();
  // As in SplitRange: the payload owns the right shard's contents until it
  // is installed at the left or restored to the right. The right shard's
  // range is empty meanwhile, so racing requests bounce and re-route.
  const int64_t moved = payload.total_bytes;
  auto copy = internal::CopyPayload(rt, source, left->location(), moved);
  const bool arrived = co_await std::move(copy);
  Status failed = Status::Ok();
  if (!unsafe && (!arrived || left->lost())) {
    // The survivor never held the copy. Its own range is untouched: if its
    // machine died, that loss is the crash's, not the merge's.
    failed = Status::Unavailable("merge destination failed during the copy");
  } else {
    failed = left->AbsorbRightNeighbor(std::move(payload));
    if (failed.ok()) {
      auto route = commit(*left, *right, moved);
      failed = co_await std::move(route);
      if (failed.ok()) {
        right_guard.Release();
        auto destroy = rt.Destroy(ctx, right_id);
        (void)co_await std::move(destroy);
        co_return Status::Ok();
      }
      payload = left->ExtractUpperRange(boundary);
    }
  }
  // Restore the right shard exactly as it was.
  auto rollback = internal::RestorePayload(rt, right, /*adjacent=*/false,
                                           std::move(payload), counters);
  const Status rolled_back = co_await std::move(rollback);
  co_return rolled_back.ok() ? failed : rolled_back;
}

}  // namespace quicksand

#endif  // QUICKSAND_SHARDING_RESHAPE_H_

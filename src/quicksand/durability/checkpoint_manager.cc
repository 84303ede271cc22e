#include "quicksand/durability/checkpoint_manager.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "quicksand/common/logging.h"
#include "quicksand/sched/placement.h"

namespace quicksand {

Task<Status> CheckpointManager::Protect(Ctx ctx, ProcletId id,
                                        RestoreFactory factory) {
  {
    MutexGuard guard = co_await mu_.Acquire();
    if (records_.count(id) != 0) {
      co_return Status::Ok();  // already protected
    }
    ProcletBase* proclet = rt_.Find(id);
    if (proclet == nullptr) {
      co_return Status::NotFound("cannot protect a gone or lost proclet");
    }
    Record record;
    record.factory = std::move(factory);
    record.kind = proclet->kind();
    records_.emplace(id, std::move(record));
    proclet->SetCheckpointProtected(true);
  }
  // First checkpoint is a full one; it also probes that the type actually
  // implements the state hooks.
  Status first = co_await CheckpointNow(ctx, id);
  if (first.code() == StatusCode::kFailedPrecondition) {
    MutexGuard guard = co_await mu_.Acquire();
    records_.erase(id);
    if (ProcletBase* proclet = rt_.Find(id)) {
      proclet->SetCheckpointProtected(false);
    }
  }
  co_return first;
}

Task<Status> CheckpointManager::CheckpointNow(Ctx ctx, ProcletId id) {
  MutexGuard guard = co_await mu_.Acquire();
  co_return co_await CheckpointLocked(ctx, id);
}

Task<Status> CheckpointManager::CheckpointLocked(Ctx ctx, ProcletId id) {
  auto it = records_.find(id);
  if (it == records_.end()) {
    co_return Status::NotFound("proclet is not protected");
  }
  Record& record = it->second;
  const MachineId host = rt_.LocationOf(id);
  if (host == kInvalidMachineId) {
    // Gone or lost; a lost proclet is the RecoveryCoordinator's problem.
    co_return Status::NotFound("proclet has no live host");
  }
  // Control trigger from the manager's home to the host.
  (void)co_await rt_.fabric().Transfer(options_.home, host,
                                       rt_.config().control_message_bytes);

  // Capture runs as a normal (local) invocation at the host: the gate
  // serializes it against migration and maintenance, and the synchronous
  // closure holds the call across no suspension point — so an evacuation
  // draining this proclet always completes (no deadlock by construction).
  std::optional<StateImage> image;
  int64_t taken_dirty = 0;
  bool lost = false;
  bool gone = false;
  {
    auto capture = rt_.Invoke<ProcletBase>(
        rt_.CtxOn(host), id,
        [](ProcletBase& p) -> Task<std::pair<std::optional<StateImage>, int64_t>> {
          std::optional<StateImage> img = p.CaptureState();
          const int64_t dirty = img.has_value() ? p.TakeDirtyBytes() : 0;
          co_return std::make_pair(std::move(img), dirty);
        });
    try {
      auto [img, dirty] = co_await std::move(capture);
      image = std::move(img);
      taken_dirty = dirty;
    } catch (const ProcletLostError&) {
      lost = true;
    } catch (const ProcletGoneError&) {
      gone = true;
    }
  }
  if (lost) {
    co_return Status::DataLoss("proclet lost before capture");
  }
  if (gone) {
    co_return Status::NotFound("proclet destroyed before capture");
  }
  if (!image.has_value()) {
    co_return Status::FailedPrecondition("proclet type is not checkpointable");
  }
  if (record.has_image && taken_dirty == 0) {
    co_return Status::Ok();  // clean since the last checkpoint
  }
  const int64_t full = image->bytes;
  int64_t incremental =
      record.has_image ? std::min(taken_dirty, full) : full;

  // Re-place the depot when there is none yet, when the primary migrated
  // onto the depot machine (anti-affinity would be violated), or when the
  // depot's machine died. A new depot needs the whole image.
  const bool need_new_depot =
      record.depot_machine == kInvalidMachineId ||
      record.depot_machine == host ||
      rt_.cluster().machine(record.depot_machine).failed();
  if (need_new_depot) {
    Result<MachineId> target = ChooseReplicaTarget(rt_.cluster(), host, full);
    if (!target.ok()) {
      if (ProcletBase* p = rt_.Find(id)) {
        p->AddDirtyBytes(taken_dirty);  // retry next interval
      }
      co_return target.status();
    }
    record.depot_machine = *target;
    record.depot = Ref<StorageProclet>();
    record.depot_object = next_depot_object_++;
    incremental = full;
  }
  Result<Ref<StorageProclet>> depot =
      co_await EnsureDepot(ctx, record.depot_machine);
  if (!depot.ok()) {
    if (ProcletBase* p = rt_.Find(id)) {
      p->AddDirtyBytes(taken_dirty);
    }
    co_return depot.status();
  }
  record.depot = *depot;

  // Ship the delta host -> depot and rewrite the blob: the depot stores the
  // full image (capacity delta + full-size disk write), the wire carries
  // only the incremental bytes.
  Status written = Status::Internal("unset");
  bool depot_lost = false;
  {
    auto write = record.depot.Call(
        rt_.CtxOn(host),
        [object = record.depot_object, full](StorageProclet& s) -> Task<Status> {
          co_return co_await s.WriteObject(object, CheckpointBlob{full});
        },
        incremental);
    try {
      written = co_await std::move(write);
    } catch (const ProcletLostError&) {
      depot_lost = true;
    } catch (const ProcletGoneError&) {
      depot_lost = true;
    }
  }
  if (depot_lost || !written.ok()) {
    if (ProcletBase* p = rt_.Find(id)) {
      p->AddDirtyBytes(taken_dirty);
    }
    co_return depot_lost ? Status::Unavailable("checkpoint depot died mid-write")
                         : written;
  }

  record.image = std::move(*image);
  record.has_image = true;
  ++checkpoints_taken_;
  bytes_shipped_ += incremental;
  rt_.AccountCheckpoint(incremental);
  if (Tracer* tracer = rt_.tracer()) {
    tracer->Instant(TraceContext{}, host, TraceOp::kCheckpoint, id, incremental,
                    need_new_depot ? "full" : "incremental");
  }
  QS_LOG_DEBUG("checkpoint", "proclet %llu: %lld bytes (of %lld) to depot m%u",
               static_cast<unsigned long long>(id),
               static_cast<long long>(incremental), static_cast<long long>(full),
               record.depot_machine);
  co_return Status::Ok();
}

Task<int> CheckpointManager::CheckpointMachine(Ctx ctx, MachineId machine) {
  std::vector<ProcletId> ids;
  for (const auto& [id, record] : records_) {
    if (rt_.LocationOf(id) == machine) {
      ids.push_back(id);
    }
  }
  int saved = 0;
  for (ProcletId id : ids) {
    Status status = co_await CheckpointNow(ctx, id);
    if (status.ok()) {
      ++saved;
    }
  }
  co_return saved;
}

void CheckpointManager::Start() {
  QS_CHECK_MSG(!started_, "CheckpointManager::Start called twice");
  started_ = true;
  rt_.sim().Spawn(PeriodicLoop(), "checkpoint_manager");
}

Task<> CheckpointManager::PeriodicLoop() {
  while (!stopped_) {
    co_await rt_.sim().Sleep(options_.interval);
    if (stopped_) {
      co_return;
    }
    const Ctx ctx = rt_.CtxOn(options_.home);
    std::vector<ProcletId> ids;
    for (const auto& [id, record] : records_) {
      ids.push_back(id);
    }
    for (ProcletId id : ids) {
      (void)co_await CheckpointNow(ctx, id);
    }
  }
}

void CheckpointManager::Arm(FaultInjector& injector) {
  injector.OnRevocation([this](const RevokeResources& notice) {
    rt_.sim().Spawn(HandleRevocation(notice.machine),
                    "checkpoint_revoked_m" + std::to_string(notice.machine));
  });
  injector.OnCrash([this](MachineId machine) {
    rt_.sim().Spawn(HandleDepotLoss(machine),
                    "checkpoint_depot_m" + std::to_string(machine));
  });
}

Task<> CheckpointManager::HandleRevocation(MachineId machine) {
  // Final pre-death snapshot: whatever lands in a depot before the deadline
  // is recoverable with RPO = 0.
  (void)co_await CheckpointMachine(rt_.CtxOn(options_.home), machine);
}

Task<> CheckpointManager::HandleDepotLoss(MachineId machine) {
  // A crashed machine may have hosted depots, not just primaries. The
  // depot's blobs died with it, but the protected primaries are still
  // alive: re-checkpoint each affected record (full image) into a fresh
  // anti-affine depot. A record whose primary died in the SAME crash stays
  // unrecoverable — losing a primary and its depot together is the
  // two-failure event anti-affine placement is designed to exclude.
  MutexGuard guard = co_await mu_.Acquire();
  depots_.erase(machine);
  std::vector<ProcletId> affected;
  for (const auto& [id, record] : records_) {
    if (record.depot_machine == machine) {
      affected.push_back(id);
    }
  }
  const Ctx ctx = rt_.CtxOn(options_.home);
  for (ProcletId id : affected) {
    Record& record = records_[id];
    record.has_image = false;  // the blob is gone
    record.depot_machine = kInvalidMachineId;
    record.depot = Ref<StorageProclet>();
    if (rt_.IsLost(id)) {
      continue;
    }
    (void)co_await CheckpointLocked(ctx, id);
  }
}

Task<Result<Ref<StorageProclet>>> CheckpointManager::EnsureDepot(
    Ctx ctx, MachineId machine) {
  auto it = depots_.find(machine);
  if (it != depots_.end()) {
    if (rt_.LocationOf(it->second.id()) != kInvalidMachineId) {
      co_return it->second;
    }
    depots_.erase(it);  // died with its machine; recreate
  }
  PlacementRequest request;
  request.heap_bytes = options_.depot_base_bytes;
  request.pinned = machine;
  auto create = rt_.Create<StorageProclet>(ctx, request);
  Result<Ref<StorageProclet>> depot = co_await std::move(create);
  if (!depot.ok()) {
    co_return depot.status();
  }
  depots_.emplace(machine, *depot);
  depot_ids_.insert(depot->id());
  co_return *depot;
}

bool CheckpointManager::Recoverable(ProcletId id) const {
  auto it = records_.find(id);
  if (it == records_.end() || !it->second.has_image) {
    return false;
  }
  const Record& record = it->second;
  if (record.depot_machine == kInvalidMachineId ||
      rt_.cluster().machine(record.depot_machine).failed()) {
    return false;  // checkpoint died with its depot
  }
  return true;
}

Task<Status> CheckpointManager::RestoreLost(Ctx ctx, ProcletId id,
                                            MachineId target) {
  auto it = records_.find(id);
  if (it == records_.end() || !it->second.has_image) {
    co_return Status::NotFound("no checkpoint for proclet");
  }
  Record& record = it->second;
  if (!rt_.IsLost(id)) {
    co_return Status::FailedPrecondition("proclet is not lost");
  }
  if (!Recoverable(id)) {
    co_return Status::DataLoss("checkpoint depot died with its machine");
  }
  if (target == kInvalidMachineId) {
    PlacementRequest request;
    request.kind = record.kind;
    request.heap_bytes = record.image.bytes;
    Result<MachineId> placed = rt_.placement().Place(request, rt_.cluster());
    if (!placed.ok()) {
      co_return placed.status();
    }
    target = *placed;
  }
  if (rt_.cluster().machine(target).failed()) {
    co_return Status::Unavailable("restore target has failed");
  }

  // Read the blob back: pays the depot's disk read and ships the full image
  // depot -> target as the response payload.
  Result<CheckpointBlob> blob = Status::Internal("unset");
  bool depot_lost = false;
  {
    auto read = record.depot.Call(
        rt_.CtxOn(target),
        [object = record.depot_object](StorageProclet& s) -> Task<Result<CheckpointBlob>> {
          co_return co_await s.ReadObject<CheckpointBlob>(object);
        });
    try {
      blob = co_await std::move(read);
    } catch (const ProcletLostError&) {
      depot_lost = true;
    } catch (const ProcletGoneError&) {
      depot_lost = true;
    }
  }
  if (depot_lost) {
    co_return Status::DataLoss("checkpoint depot died during restore");
  }
  if (!blob.ok()) {
    co_return blob.status();
  }

  ProcletInit init{&rt_, &rt_.sim(), id, record.kind, target};
  std::unique_ptr<ProcletBase> restored = record.factory(init);
  QS_CHECK_MSG(restored != nullptr, "restore factory returned null");
  Status filled = restored->RestoreState(record.image);
  if (!filled.ok()) {
    co_return filled;
  }
  Status adopted = rt_.AdoptRestored(id, std::move(restored), target);
  if (!adopted.ok()) {
    co_return adopted;
  }
  ++restores_;
  QS_LOG_DEBUG("checkpoint", "proclet %llu restored on m%u from depot m%u",
               static_cast<unsigned long long>(id), target,
               record.depot_machine);
  co_return Status::Ok();
}

}  // namespace quicksand

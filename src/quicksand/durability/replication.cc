#include "quicksand/durability/replication.h"

#include <optional>
#include <string>
#include <utility>

#include "quicksand/common/logging.h"
#include "quicksand/sched/placement.h"

namespace quicksand {

ReplicationManager::Replica& ReplicationManager::RecordFor(ProcletId id) {
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    it = replicas_.emplace(id, std::make_unique<Replica>(rt_.sim())).first;
  }
  return *it->second;
}

Task<Status> ReplicationManager::Replicate(Ctx ctx, ProcletId id,
                                           BackupFactory factory) {
  const MachineId host = rt_.LocationOf(id);
  if (host == kInvalidMachineId) {
    co_return Status::NotFound("cannot replicate a gone or lost proclet");
  }
  Replica& replica = RecordFor(id);
  MutexGuard guard = co_await replica.mu.Acquire();
  if (replica.backup != nullptr &&
      !rt_.cluster().machine(replica.backup_machine).failed()) {
    co_return Status::Ok();  // live backup already in place
  }
  replica.backup.reset();
  replica.factory = std::move(factory);

  ProcletBase* primary = rt_.Find(id);
  if (primary == nullptr) {
    co_return Status::NotFound("primary vanished during replication setup");
  }
  const ProcletKind kind = primary->kind();
  Result<MachineId> target =
      ChooseReplicaTarget(rt_.cluster(), host, primary->heap_bytes());
  if (!target.ok()) {
    co_return target.status();
  }

  // Capture the primary's state and attach the mutation sink in ONE
  // synchronous invocation: nothing can mutate between the snapshot and the
  // start of the log, so image + log replay is exactly the primary's
  // history. (Mutations that land while the image is in flight below are
  // logged; Ship() waits on this record's mutex, so they replay only after
  // the backup object exists.)
  std::optional<StateImage> image;
  bool lost = false;
  bool gone = false;
  {
    auto capture = rt_.Invoke<ProcletBase>(
        rt_.CtxOn(host), id,
        [this](ProcletBase& p) -> Task<std::optional<StateImage>> {
          std::optional<StateImage> img = p.CaptureState();
          if (img.has_value()) {
            p.AttachReplicationSink(this);
          }
          co_return img;
        });
    try {
      image = co_await std::move(capture);
    } catch (const ProcletLostError&) {
      lost = true;
    } catch (const ProcletGoneError&) {
      gone = true;
    }
  }
  if (lost) {
    co_return Status::DataLoss("primary lost during replication setup");
  }
  if (gone) {
    co_return Status::NotFound("primary destroyed during replication setup");
  }
  if (!image.has_value()) {
    co_return Status::FailedPrecondition("proclet type is not replicable");
  }

  // Full initial sync: ship the image and rebuild the backup object, heap
  // charged against the backup machine.
  const bool delivered =
      co_await rt_.fabric().Transfer(host, *target, image->bytes);
  if (!delivered || rt_.cluster().machine(*target).failed()) {
    if (ProcletBase* p = rt_.Find(id)) {
      p->DetachReplicationSink();
    }
    co_return Status::Unavailable("initial sync transfer failed");
  }
  ProcletInit init{&rt_, &rt_.sim(), id, kind, *target};
  std::unique_ptr<ProcletBase> backup = replica.factory(init);
  QS_CHECK_MSG(backup != nullptr, "backup factory returned null");
  Status filled = backup->RestoreState(*image);
  if (!filled.ok()) {
    if (ProcletBase* p = rt_.Find(id)) {
      p->DetachReplicationSink();
    }
    co_return filled;
  }
  replica.backup = std::move(backup);
  replica.backup_machine = *target;
  replica.last_synced = rt_.sim().Now();
  ++replicas_established_;
  QS_LOG_DEBUG("replication", "proclet %llu: backup on m%u (%lld bytes)",
               static_cast<unsigned long long>(id), *target,
               static_cast<long long>(image->bytes));
  co_return Status::Ok();
}

Task<> ReplicationManager::Flush(ProcletBase& primary) {
  auto it = replicas_.find(primary.id());
  if (it == replicas_.end()) {
    (void)primary.TakePendingMutations();  // stale sink; drop the log
    co_return;
  }
  auto batch = std::make_shared<std::vector<MutationRecord>>(
      primary.TakePendingMutations());
  if (batch->empty()) {
    co_return;
  }
  const MachineId src = primary.location();
  if (options_.ack == AckMode::kDurable) {
    co_await Ship(primary.id(), src, std::move(batch));
  } else {
    rt_.sim().Spawn(Ship(primary.id(), src, std::move(batch)),
                    "repl_ship_" + std::to_string(primary.id()));
  }
}

Task<> ReplicationManager::Ship(
    ProcletId id, MachineId src,
    std::shared_ptr<std::vector<MutationRecord>> batch) {
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    co_return;
  }
  Replica& replica = *it->second;
  MutexGuard guard = co_await replica.mu.Acquire();
  if (replica.backup == nullptr ||
      rt_.cluster().machine(replica.backup_machine).failed()) {
    co_return;  // backup gone; the repair pass re-syncs from scratch
  }
  int64_t bytes = kRpcHeaderBytes;
  for (const MutationRecord& record : *batch) {
    bytes += record.bytes;
  }
  const MachineId dst = replica.backup_machine;
  const bool delivered = co_await rt_.fabric().Transfer(src, dst, bytes);
  if (!delivered || replica.backup == nullptr ||
      rt_.cluster().machine(dst).failed()) {
    co_return;  // log lost in flight (an endpoint died)
  }
  for (const MutationRecord& record : *batch) {
    (void)record.apply(*replica.backup);
  }
  mutations_shipped_ += static_cast<int64_t>(batch->size());
  bytes_shipped_ += bytes;
  replica.last_synced = rt_.sim().Now();
  // The ack round trip; durable-mode invocations suspend until here.
  (void)co_await rt_.fabric().Transfer(dst, src, options_.ack_bytes);
}

Duration ReplicationManager::StalenessOf(ProcletId id, SimTime now) const {
  auto it = replicas_.find(id);
  if (it == replicas_.end() || it->second->backup == nullptr ||
      rt_.cluster().machine(it->second->backup_machine).failed()) {
    return Duration::Max();
  }
  const Replica& replica = *it->second;
  // Fully shipped and the primary is reachable in the directory: the backup
  // matches every acked mutation, staleness zero. Otherwise the backup may
  // lag anything that happened after the last acknowledged sync.
  ProcletBase* primary =
      const_cast<Runtime&>(rt_).Find(id);  // Find is logically const
  if (primary != nullptr && !primary->has_pending_mutations()) {
    return Duration::Zero();
  }
  return now - replica.last_synced;
}

void ReplicationManager::Arm(FaultInjector& injector) {
  injector.OnCrash([this](MachineId machine) {
    rt_.sim().Spawn(RepairAfterCrash(machine),
                    "repl_repair_m" + std::to_string(machine));
  });
}

void ReplicationManager::ArmDetector(FailureDetector& detector) {
  detector.OnConfirm([this](MachineId machine) {
    rt_.sim().Spawn(RepairAfterCrash(machine),
                    "repl_repair_m" + std::to_string(machine));
  });
}

Task<> ReplicationManager::RepairAfterCrash(MachineId machine) {
  for (auto& [id, replica] : replicas_) {
    if (replica->backup == nullptr || replica->backup_machine != machine) {
      continue;
    }
    replica->backup.reset();  // died with its machine
    if (rt_.LocationOf(id) == kInvalidMachineId) {
      continue;  // primary is gone too (earlier crash); promotion handles it
    }
    BackupFactory factory = replica->factory;
    (void)co_await Replicate(rt_.CtxOn(options_.home), id, std::move(factory));
  }
}

bool ReplicationManager::HasLiveBackup(ProcletId id) const {
  auto it = replicas_.find(id);
  // A backup on a declared-dead (gray-failed) machine is as unusable as one
  // on a crashed machine: nothing may be promoted from behind the fence.
  return it != replicas_.end() && it->second->backup != nullptr &&
         !rt_.cluster().machine(it->second->backup_machine).failed() &&
         !rt_.MachineConsideredDead(it->second->backup_machine);
}

MachineId ReplicationManager::BackupMachineOf(ProcletId id) const {
  auto it = replicas_.find(id);
  return it == replicas_.end() ? kInvalidMachineId
                               : it->second->backup_machine;
}

Task<Status> ReplicationManager::PromoteBackup(Ctx ctx, ProcletId id) {
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    co_return Status::NotFound("proclet is not replicated");
  }
  Replica& replica = *it->second;
  // Waits out any in-flight log shipment so the backup is as fresh as the
  // last acknowledged batch.
  MutexGuard guard = co_await replica.mu.Acquire();
  if (!rt_.IsLost(id)) {
    co_return Status::FailedPrecondition("primary is not lost");
  }
  if (replica.backup == nullptr ||
      rt_.cluster().machine(replica.backup_machine).failed()) {
    co_return Status::DataLoss("backup died too");
  }
  const MachineId target = replica.backup_machine;
  // Control-plane rebind only: the state already lives on the backup
  // machine.
  (void)co_await rt_.fabric().Transfer(ctx.machine, target,
                                       rt_.config().control_message_bytes);
  Status adopted =
      rt_.AdoptRestored(id, std::move(replica.backup), target);
  if (!adopted.ok()) {
    co_return adopted;
  }
  replica.backup_machine = kInvalidMachineId;
  ++promotions_;
  if (Tracer* tracer = rt_.tracer()) {
    tracer->Instant(ctx.trace, target, TraceOp::kPromote, id);
  }
  QS_LOG_DEBUG("replication", "proclet %llu promoted on m%u",
               static_cast<unsigned long long>(id), target);
  // Re-arm with a fresh backup, best effort (a shrunken cluster may have no
  // anti-affine machine left).
  BackupFactory factory = replica.factory;
  guard.Unlock();
  (void)co_await Replicate(ctx, id, std::move(factory));
  co_return Status::Ok();
}

}  // namespace quicksand

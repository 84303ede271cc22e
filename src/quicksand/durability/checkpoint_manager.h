// CheckpointManager: periodic + on-revocation-notice snapshots of proclet
// state into per-machine storage depots placed anti-affine to the primary.
//
// Quicksand's harvested resources fail-stop with millisecond warnings (§2),
// and PR 1 made that loss observable; this manager makes it survivable.
// Every protected proclet gets:
//
//  * a periodic incremental checkpoint: the proclet's CaptureState() image
//    is written to a FlatStorage-style depot (one pinned StorageProclet per
//    depot machine) chosen anti-affine to the primary's current host, so a
//    single machine failure never takes the state and its checkpoint
//    together. The wire pays only the dirty bytes mutated since the last
//    checkpoint; the depot rewrites the full image (capacity delta + one
//    full-size disk write — a log-structured depot would make the disk cost
//    incremental too; documented simplification),
//  * a final pre-death snapshot on revocation notice (Arm), racing the
//    deadline alongside the EmergencyEvacuator — whichever finishes first
//    saves the proclet, and the capture path serializes through the normal
//    invocation gate so the two never deadlock,
//  * a recovery path (RestoreLost) used by the RecoveryCoordinator: read
//    the blob back (depot disk read + full-image transfer to the restore
//    target), rebuild the object via the registered factory, and rebind the
//    old proclet id through Runtime::AdoptRestored.
//
// The recovery point is the last completed checkpoint (RPO = up to one
// interval of mutations, zero if the final revocation snapshot landed);
// callers that need RPO ~ 0 under zero-warning crashes use the
// ReplicationManager instead (or in addition).

#ifndef QUICKSAND_DURABILITY_CHECKPOINT_MANAGER_H_
#define QUICKSAND_DURABILITY_CHECKPOINT_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "quicksand/cluster/fault_injector.h"
#include "quicksand/proclet/storage_proclet.h"
#include "quicksand/runtime/runtime.h"
#include "quicksand/sim/sync.h"

namespace quicksand {

// Cost-model stand-in for a serialized checkpoint stored in a depot: the
// real image stays in the manager's record (the simulator never serializes
// C++ objects); the blob carries the byte count the disk and wire charge.
struct CheckpointBlob {
  int64_t bytes = 0;

  int64_t WireBytes() const { return bytes; }
};

class CheckpointManager {
 public:
  // Rebuilds an empty proclet object of the protected type for restore;
  // RestoreState() then fills it from the checkpoint image.
  using RestoreFactory =
      std::function<std::unique_ptr<ProcletBase>(const ProcletInit&)>;

  struct Options {
    // Periodic checkpoint cadence (Start).
    Duration interval = Duration::Millis(10);
    // Machine the manager's control fibers run on (the controller).
    MachineId home = 0;
    // Initial heap charge for each per-machine depot proclet.
    int64_t depot_base_bytes = 4096;
  };

  explicit CheckpointManager(Runtime& rt) : CheckpointManager(rt, Options{}) {}
  CheckpointManager(Runtime& rt, Options options)
      : rt_(rt), options_(options), mu_(rt.sim()) {}

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  // Registers `id` for checkpointing and takes the first (full) checkpoint.
  // FailedPrecondition if the proclet's type does not implement the state
  // hooks; Ok if already protected.
  Task<Status> Protect(Ctx ctx, ProcletId id, RestoreFactory factory);

  template <typename P>
  Task<Status> ProtectAs(Ctx ctx, ProcletId id) {
    return Protect(ctx, id, [](const ProcletInit& init) {
      return std::unique_ptr<ProcletBase>(std::make_unique<P>(init));
    });
  }

  // Checkpoints one protected proclet now: capture through the invocation
  // gate at the host, ship the dirty bytes to the (anti-affine) depot,
  // rewrite the blob. No-op (Ok) when nothing changed since the last one.
  Task<Status> CheckpointNow(Ctx ctx, ProcletId id);

  // Checkpoints every protected proclet currently hosted on `machine` (the
  // revocation pre-death snapshot); returns how many succeeded.
  Task<int> CheckpointMachine(Ctx ctx, MachineId machine);

  // Spawns the periodic loop (every Options::interval, checkpoint all dirty
  // protected proclets). The loop runs until Stop().
  void Start();
  void Stop() { stopped_ = true; }

  // Subscribes to revocation notices: each notice spawns a final snapshot
  // pass over the dying machine, racing the deadline.
  void Arm(FaultInjector& injector);

  // --- Recovery (called by RecoveryCoordinator) -----------------------------

  // True when `id` has a completed checkpoint whose depot is still alive.
  bool Recoverable(ProcletId id) const;

  // True when `id` is one of the manager's own depot proclets. Depots are
  // infrastructure: a lost depot is rebuilt by re-checkpointing from the
  // live primaries (Arm's crash handler), never restored, so the
  // RecoveryCoordinator excludes them from per-crash loss accounting.
  bool IsDepot(ProcletId id) const { return depot_ids_.count(id) != 0; }

  // Restores a LOST proclet from its latest checkpoint onto `target` (chosen
  // by the placement policy when kInvalidMachineId), paying the depot read
  // and the full-image transfer, and rebinds the id via AdoptRestored.
  Task<Status> RestoreLost(Ctx ctx, ProcletId id,
                           MachineId target = kInvalidMachineId);

  // --- Introspection --------------------------------------------------------

  int64_t protected_count() const { return static_cast<int64_t>(records_.size()); }
  int64_t checkpoints_taken() const { return checkpoints_taken_; }
  int64_t bytes_shipped() const { return bytes_shipped_; }
  int64_t restores() const { return restores_; }

 private:
  struct Record {
    RestoreFactory factory;
    ProcletKind kind = ProcletKind::kMemory;
    StateImage image;       // latest committed image (authoritative copy)
    bool has_image = false;
    MachineId depot_machine = kInvalidMachineId;
    Ref<StorageProclet> depot;
    uint64_t depot_object = 0;
  };

  Task<> PeriodicLoop();
  Task<> HandleRevocation(MachineId machine);
  // Re-checkpoints records whose depot died with `machine` (primaries are
  // still alive; only the stored blobs were lost).
  Task<> HandleDepotLoss(MachineId machine);
  // Finds (or creates, pinned) the depot proclet on `machine`.
  Task<Result<Ref<StorageProclet>>> EnsureDepot(Ctx ctx, MachineId machine);
  // CheckpointNow body; caller holds mu_.
  Task<Status> CheckpointLocked(Ctx ctx, ProcletId id);

  Runtime& rt_;
  Options options_;
  // Serializes checkpoint operations: the periodic loop and a revocation
  // snapshot may otherwise interleave depot creation and record commits.
  Mutex mu_;
  bool started_ = false;
  bool stopped_ = false;
  // std::map: recovery and the periodic loop iterate in id order so two
  // same-seed runs replay identically.
  std::map<ProcletId, Record> records_;
  std::map<MachineId, Ref<StorageProclet>> depots_;
  // Every depot ever created (never erased; ids are not reused).
  std::set<ProcletId> depot_ids_;
  uint64_t next_depot_object_ = 1;
  int64_t checkpoints_taken_ = 0;
  int64_t bytes_shipped_ = 0;
  int64_t restores_ = 0;
};

}  // namespace quicksand

#endif  // QUICKSAND_DURABILITY_CHECKPOINT_MANAGER_H_

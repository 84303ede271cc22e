// ReplicationManager: primary-backup replication for memory-class proclets
// via synchronous log-shipping of mutations.
//
// Checkpoints bound data loss to one interval; hot shards on zero-warning
// harvested resources need better. A replicated proclet keeps a passive
// backup object on a machine chosen anti-affine to its primary:
//
//  * establishment (Replicate): one synchronous invocation captures the
//    primary's state AND attaches the mutation sink — atomically, so no
//    mutation can slip between the snapshot and the log — then the full
//    image ships to the backup machine and rebuilds the backup object
//    (heap charged against the backup machine, keeping the memory cost of
//    2x replication honest),
//  * steady state: every mutating invocation appends replayable records
//    (ProcletBase::RecordMutation); Runtime::Invoke flushes them through
//    this manager before releasing the response. Ack modes:
//      - kDurable: the invocation suspends until the log round-trips to the
//        backup — an acked mutation survives any single-machine crash
//        (RPO = 0 for acknowledged writes),
//      - kFireAndForget: the log ships on a detached fiber; calls return at
//        local speed and the tail of un-shipped mutations can be lost
//        (RPO > 0) — the honest latency/durability trade,
//  * primary loss: RecoveryCoordinator promotes the backup object in place
//    (PromoteBackup) — it already holds the state ON the backup machine, so
//    promotion costs a control message, not a data transfer — then
//    re-replicates onto a fresh anti-affine machine, best effort,
//  * backup loss: Arm()'s crash handler re-establishes backups that died
//    with their machine (full re-sync from the surviving primary).
//
// What replication does NOT guarantee: a mutation whose ack was lost with
// the primary may be retried by the caller and applied twice (classic
// at-least-once; ShardedVector appends can duplicate). Compute proclets are
// never replicated — their constructors spawn worker fibers, so "passive
// backup" is meaningless; DistPool lineage re-executes their lost jobs.

#ifndef QUICKSAND_DURABILITY_REPLICATION_H_
#define QUICKSAND_DURABILITY_REPLICATION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <type_traits>
#include <vector>

#include "quicksand/cluster/fault_injector.h"
#include "quicksand/health/failure_detector.h"
#include "quicksand/runtime/runtime.h"
#include "quicksand/sim/sync.h"

namespace quicksand {

enum class AckMode {
  kDurable,       // invocation waits for the backup's ack
  kFireAndForget  // log ships asynchronously; tail loss possible
};

class ReplicationManager : public ReplicationSink {
 public:
  // Builds an empty backup object of the replicated type; RestoreState()
  // and log replay then fill it.
  using BackupFactory =
      std::function<std::unique_ptr<ProcletBase>(const ProcletInit&)>;

  struct Options {
    AckMode ack = AckMode::kDurable;
    // Wire size of the backup's acknowledgment message.
    int64_t ack_bytes = 128;
    // Machine the repair fibers run on.
    MachineId home = 0;
  };

  explicit ReplicationManager(Runtime& rt) : ReplicationManager(rt, Options{}) {}
  ReplicationManager(Runtime& rt, Options options)
      : rt_(rt), options_(options) {}

  ReplicationManager(const ReplicationManager&) = delete;
  ReplicationManager& operator=(const ReplicationManager&) = delete;

  // Establishes (or re-establishes) a backup for `id` on an anti-affine
  // machine. FailedPrecondition if the type lacks state hooks; Ok if a live
  // backup already exists.
  Task<Status> Replicate(Ctx ctx, ProcletId id, BackupFactory factory);

  template <typename P>
  Task<Status> ReplicateAs(Ctx ctx, ProcletId id) {
    static_assert(P::kKind != ProcletKind::kCompute,
                  "compute proclets are recovered via lineage, not backups");
    return Replicate(ctx, id, [](const ProcletInit& init) {
      return std::unique_ptr<ProcletBase>(std::make_unique<P>(init));
    });
  }

  // Subscribes to crashes: backups that died with their machine are
  // re-established from the surviving primary (full re-sync).
  void Arm(FaultInjector& injector);

  // Detector-driven variant: repairs run when the detector confirms a
  // machine dead (real crash or gray failure) instead of at the oracle
  // instant.
  void ArmDetector(FailureDetector& detector);

  // ReplicationSink: ships the primary's pending mutation log. Called by
  // Runtime::Invoke after the call body, before the response.
  Task<> Flush(ProcletBase& primary) override;

  // --- Degraded-mode reads (overload control) -------------------------------
  //
  // Under shed pressure or revocation, a frontend may prefer a possibly
  // stale answer NOW over a fresh answer queued behind a standing queue
  // (ROADMAP's approximation-under-pressure lever). ReadStale serves a
  // read-only closure from the BACKUP object without touching the primary:
  // it costs a round trip to the backup machine and nothing at the primary.
  //
  // Staleness is bounded, not guessed: the backup is exactly as fresh as
  // the last acknowledged log shipment, so the bound below is the age of
  // that sync whenever the primary may have diverged since (pending
  // mutations, or primary lost/unreachable) and zero when the log is fully
  // shipped. A read whose bound exceeds `max_staleness` is refused with
  // FailedPrecondition — degraded mode degrades freshness, never
  // correctness claims.

  // Conservative upper bound on how far the backup lags the primary's
  // acked state at `now`. Zero when fully synced; Max() when no live backup.
  Duration StalenessOf(ProcletId id, SimTime now) const;

  // Runs `fn(const P&)` against the backup object of `id`, paying the wire
  // cost of a round trip from ctx.machine to the backup machine. Fails with
  // Unavailable (no live backup), FailedPrecondition (staleness bound
  // exceeded), never touches the primary, and never mutates.
  template <typename P, typename Fn>
  auto ReadStale(Ctx ctx, ProcletId id, Duration max_staleness, Fn fn)
      -> Task<Result<std::invoke_result_t<Fn, const P&>>>;

  int64_t stale_reads() const { return stale_reads_; }

  // --- Recovery (called by RecoveryCoordinator) -----------------------------

  bool HasLiveBackup(ProcletId id) const;

  // Promotes the backup of a LOST primary: adopts the backup object under
  // the old id on the backup's machine (control-message cost only — the
  // state is already there), then re-replicates best effort.
  Task<Status> PromoteBackup(Ctx ctx, ProcletId id);

  // --- Introspection --------------------------------------------------------

  int64_t replicas_established() const { return replicas_established_; }
  int64_t mutations_shipped() const { return mutations_shipped_; }
  int64_t bytes_shipped() const { return bytes_shipped_; }
  int64_t promotions() const { return promotions_; }
  MachineId BackupMachineOf(ProcletId id) const;

 private:
  struct Replica {
    explicit Replica(Simulator& sim) : mu(sim) {}

    // Serializes log shipments (order preservation) and establishment
    // against in-flight flushes. Records are never erased, so fibers may
    // hold Replica* across suspensions safely.
    Mutex mu;
    std::unique_ptr<ProcletBase> backup;
    MachineId backup_machine = kInvalidMachineId;
    BackupFactory factory;
    // When the backup last provably matched the primary's acked state:
    // establishment and every acknowledged log replay update it.
    SimTime last_synced = SimTime::Zero();
  };

  Replica& RecordFor(ProcletId id);
  // Transfers `batch` src -> backup and replays it; holds the record mutex.
  Task<> Ship(ProcletId id, MachineId src,
              std::shared_ptr<std::vector<MutationRecord>> batch);
  Task<> RepairAfterCrash(MachineId machine);

  Runtime& rt_;
  Options options_;
  // std::map for deterministic repair order.
  std::map<ProcletId, std::unique_ptr<Replica>> replicas_;
  int64_t replicas_established_ = 0;
  int64_t mutations_shipped_ = 0;
  int64_t bytes_shipped_ = 0;
  int64_t promotions_ = 0;
  int64_t stale_reads_ = 0;
};

// --- Template implementations -------------------------------------------------

template <typename P, typename Fn>
auto ReplicationManager::ReadStale(Ctx ctx, ProcletId id,
                                   Duration max_staleness, Fn fn)
    -> Task<Result<std::invoke_result_t<Fn, const P&>>> {
  auto it = replicas_.find(id);
  if (it == replicas_.end() || it->second->backup == nullptr ||
      rt_.cluster().machine(it->second->backup_machine).failed()) {
    co_return Status::Unavailable("no live backup to read from");
  }
  Replica& replica = *it->second;
  // Serialize behind in-flight log shipments: the answer reflects the last
  // *acknowledged* batch, never a half-replayed one.
  MutexGuard guard = co_await replica.mu.Acquire();
  if (replica.backup == nullptr ||
      rt_.cluster().machine(replica.backup_machine).failed()) {
    co_return Status::Unavailable("backup died while waiting");
  }
  const Duration staleness = StalenessOf(id, rt_.sim().Now());
  if (staleness > max_staleness) {
    co_return Status::FailedPrecondition(
        "backup staleness bound exceeds the caller's limit");
  }
  const MachineId backup_machine = replica.backup_machine;
  const bool delivered = co_await rt_.fabric().Transfer(
      ctx.machine, backup_machine, kRpcHeaderBytes);
  if (!delivered || replica.backup == nullptr) {
    co_return Status::Unavailable("stale-read request lost");
  }
  auto result = fn(static_cast<const P&>(*replica.backup));
  ++stale_reads_;
  rt_.NoteStaleRead(id, backup_machine);
  (void)co_await rt_.fabric().Transfer(backup_machine, ctx.machine,
                                       WireSizeOf(result) + kRpcHeaderBytes);
  co_return result;
}

}  // namespace quicksand

#endif  // QUICKSAND_DURABILITY_REPLICATION_H_

#include "quicksand/proclet/compute_proclet.h"

#include "quicksand/common/logging.h"

namespace quicksand {

Task<> BurnCpu(Ctx ctx, Duration work, int priority) {
  co_await ctx.rt->cluster().machine(ctx.machine).cpu().Run(work, priority);
}

Task<bool> MigratableBurn(Ctx ctx, Duration work, int priority) {
  auto* proclet = ctx.rt->UnsafeGet<ComputeProclet>(ctx.caller_proclet);
  if (proclet == nullptr) {
    // Not running inside a compute proclet: plain burn.
    co_await BurnCpu(ctx, work, priority);
    co_return true;
  }
  const Duration remaining =
      co_await ctx.rt->cluster().machine(ctx.machine).cpu().RunCancellable(
          work, priority, proclet->cancel_token());
  if (remaining <= Duration::Zero()) {
    co_return true;
  }
  // Quiesced mid-burn: the remainder follows the proclet as a fresh job.
  (void)proclet->SubmitFromJob([remaining, priority](Ctx next) -> Task<> {
    (void)co_await MigratableBurn(next, remaining, priority);
  });
  co_return false;
}

ComputeProclet::ComputeProclet(const ProcletInit& init, int workers)
    : ProcletBase(init), work_available_(*init.sim), idle_waiters_(*init.sim) {
  QS_CHECK(workers > 0);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.push_back(init.sim->Spawn(WorkerLoop(), "compute_worker"));
  }
}

Status ComputeProclet::Submit(Job job, int64_t job_bytes) {
  QS_CHECK(job_bytes >= 0);
  if (stopping_) {
    return Status::FailedPrecondition("compute proclet is shutting down");
  }
  if (!TryChargeHeap(job_bytes)) {
    return Status::ResourceExhausted("host machine out of memory for job");
  }
  queue_.push_back(QueuedJob{std::move(job), job_bytes});
  work_available_.WakeOne();
  return Status::Ok();
}

Task<> ComputeProclet::OnQuiesce() {
  paused_ = true;
  // Unwedge jobs stuck waiting for (possibly starved) CPU; their remaining
  // work re-enters the queue and migrates with the proclet.
  cancel_token_.Cancel();
  while (inflight_ > 0) {
    co_await idle_waiters_.Park();
  }
}

void ComputeProclet::OnResume() {
  paused_ = false;
  cancel_token_.Reset();
  work_available_.WakeAll();
}

Task<> ComputeProclet::OnDestroy() {
  paused_ = false;
  stopping_ = true;
  work_available_.WakeAll();
  co_await JoinAll(workers_);
  workers_.clear();
  // Drop whatever never ran, releasing its heap charge.
  while (!queue_.empty()) {
    ReleaseHeap(queue_.front().bytes);
    queue_.pop_front();
  }
}

void ComputeProclet::OnLost() {
  // The host crashed: no joins are possible (the cores are halted), so just
  // flag shutdown and wake everything. Parked workers observe stopping_ and
  // exit; workers mid-burn resume cancelled (the halted CpuScheduler
  // completes their requests), fail to requeue the remainder, and exit.
  // Their fibers drain within the current event cascade; the object itself
  // lingers in the runtime's limbo until teardown, so nothing dangles.
  paused_ = false;
  stopping_ = true;
  cancel_token_.Cancel();
  work_available_.WakeAll();
  queue_.clear();  // heap accounting is written off wholesale by the runtime
}

Task<> ComputeProclet::WorkerLoop() {
  for (;;) {
    while (!stopping_ && (paused_ || queue_.empty())) {
      co_await work_available_.Park();
    }
    if (stopping_) {
      co_return;
    }
    QueuedJob job = std::move(queue_.front());
    queue_.pop_front();
    ++inflight_;
    // Bind the context at job start: this is the machine the job's CPU burn
    // lands on, even if the proclet migrates mid-job.
    const Ctx ctx{&runtime(), location(), id()};
    try {
      co_await job.fn(ctx);
    } catch (const std::exception& e) {
      ++job_errors_;
      QS_LOG_WARN("compute", "proclet %llu job failed: %s",
                  static_cast<unsigned long long>(id()), e.what());
    }
    ReleaseHeap(job.bytes);
    --inflight_;
    ++completed_;
    if (inflight_ == 0) {
      idle_waiters_.WakeAll();
    }
  }
}

}  // namespace quicksand

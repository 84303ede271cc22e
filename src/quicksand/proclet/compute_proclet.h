// ComputeProclet: a resource proclet specialized for computation (§3.1).
//
// Exposes the paper's Run(lambda) as a job queue drained by worker fibers
// that execute on whatever machine the proclet currently occupies. Its heap
// is (nearly) empty — just the queued closures — which is what keeps compute
// proclets migratable in well under a millisecond.

#ifndef QUICKSAND_PROCLET_COMPUTE_PROCLET_H_
#define QUICKSAND_PROCLET_COMPUTE_PROCLET_H_

#include <deque>
#include <functional>
#include <vector>

#include "quicksand/common/status.h"
#include "quicksand/runtime/runtime.h"

namespace quicksand {

// Models `work` of CPU burn on the caller's current machine.
Task<> BurnCpu(Ctx ctx, Duration work, int priority = kPriorityNormal);

// CPU burn for jobs running inside a compute proclet (ctx.caller_proclet
// set). If the proclet quiesces for migration while the burn is queued or
// running, the remaining work is re-queued as a fresh job — it follows the
// proclet to its new machine, like a Nu thread migrating with its proclet —
// and this call returns false. Returns true when the burn fully completed
// here.
Task<bool> MigratableBurn(Ctx ctx, Duration work, int priority = kPriorityNormal);

class ComputeProclet : public ProcletBase {
 public:
  static constexpr ProcletKind kKind = ProcletKind::kCompute;
  static constexpr int64_t kDefaultJobBytes = 256;

  // A job runs with a Ctx bound to the proclet's machine at job start.
  using Job = std::function<Task<>(Ctx)>;

  ComputeProclet(const ProcletInit& init, int workers = 2);

  // --- Methods (invoke through Ref<ComputeProclet>::Call) -------------------

  // The paper's Run(lambda): enqueue a job. `job_bytes` sizes the closure
  // (and any captured data) for heap/wire accounting.
  Status Submit(Job job, int64_t job_bytes = kDefaultJobBytes);

  int64_t queue_depth() const { return static_cast<int64_t>(queue_.size()); }
  int64_t inflight() const { return inflight_; }
  int64_t completed() const { return completed_; }
  int64_t job_errors() const { return job_errors_; }
  int worker_count() const { return static_cast<int>(workers_.size()); }
  bool idle() const { return queue_.empty() && inflight_ == 0; }

  // Token covering the CPU requests of this proclet's in-flight jobs;
  // cancelled when the proclet quiesces (see MigratableBurn).
  CpuCancelToken& cancel_token() { return cancel_token_; }

  // Enqueue from a job already running inside this proclet (bypasses the
  // invocation gate; used by MigratableBurn to requeue cancelled work).
  Status SubmitFromJob(Job job, int64_t job_bytes = kDefaultJobBytes) {
    return Submit(std::move(job), job_bytes);
  }

 protected:
  Task<> OnQuiesce() override;
  void OnResume() override;
  Task<> OnDestroy() override;
  void OnLost() override;

 private:
  struct QueuedJob {
    Job fn;
    int64_t bytes;
  };

  Task<> WorkerLoop();

  std::deque<QueuedJob> queue_;
  WaitQueue work_available_;
  WaitQueue idle_waiters_;
  CpuCancelToken cancel_token_;
  std::vector<Fiber> workers_;
  int64_t inflight_ = 0;
  int64_t completed_ = 0;
  int64_t job_errors_ = 0;
  bool paused_ = false;
  bool stopping_ = false;
};

}  // namespace quicksand

#endif  // QUICKSAND_PROCLET_COMPUTE_PROCLET_H_

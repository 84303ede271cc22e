// DistPool: the distributed thread pool abstraction (§3.2).
//
// A pool is a set of compute proclets ("the underlying threads are sharded
// across compute proclets"). Submitting work picks the least-backlogged
// member; Grow adds a member, and RecoverLost replaces members lost to a
// machine crash.
//
// Pool membership lives in plain client/controller state (not a proclet):
// the authoritative structure is the set of compute proclets themselves,
// which the runtime tracks; PoolHandle is the convenience wrapper.

#ifndef QUICKSAND_COMPUTE_DIST_POOL_H_
#define QUICKSAND_COMPUTE_DIST_POOL_H_

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "quicksand/proclet/compute_proclet.h"
#include "quicksand/sim/sync.h"

namespace quicksand {

class DistPool {
 public:
  struct Options {
    int initial_proclets = 1;
    int workers_per_proclet = 2;
    int64_t proclet_base_bytes = 4096;
    // Job lineage: every submission gets a dedup id and stays recorded until
    // it COMPLETES (not merely starts). A job that finished on a machine
    // that later crashed is never re-executed — the completion marker lives
    // client-side, so the crash cannot erase it — and jobs that died queued
    // or running can be re-executed idempotently via ResubmitIncomplete.
    bool lineage = false;
  };

  // A lineage-recorded job that has not completed yet.
  struct PendingJob {
    ComputeProclet::Job job;  // dedup-wrapped; reuses the original seq
    int64_t bytes = 0;
  };

  // State shared between handle copies (pool membership changes as members
  // are grown, lost and replaced).
  struct State {
    Options options;
    std::vector<Ref<ComputeProclet>> members;
    int64_t submitted = 0;
    int64_t next_member = 0;  // round-robin cursor among equally-loaded members
    int64_t lost_members = 0;  // members whose host machine crashed
    // Lineage bookkeeping (std::map/std::set: deterministic resubmit order).
    int64_t next_job_seq = 1;
    std::set<int64_t> completed_jobs;
    std::map<int64_t, PendingJob> pending;
    int64_t deduped_jobs = 0;  // retries skipped because the job had completed
  };

  DistPool() = default;

  // (Overload rather than a default argument: a default `Options{}` inside
  // the enclosing class would need the member initializers too early.)
  static Task<Result<DistPool>> Create(Ctx ctx) { return Create(ctx, Options{}); }

  static Task<Result<DistPool>> Create(Ctx ctx, Options options) {
    QS_CHECK(options.initial_proclets >= 1);
    DistPool pool;
    pool.state_ = std::make_shared<State>();
    pool.state_->options = options;
    for (int i = 0; i < options.initial_proclets; ++i) {
      Status grown = co_await pool.Grow(ctx);
      if (!grown.ok()) {
        co_return grown;
      }
    }
    co_return pool;
  }

  const std::vector<Ref<ComputeProclet>>& members() const { return state_->members; }
  int64_t submitted() const { return state_->submitted; }
  int64_t lost_members() const { return state_->lost_members; }

  // Submits a job to the member with the shortest backlog. Members lost to
  // machine failures are dropped from the pool and the submission retries on
  // a survivor (at-least-once). Without lineage a job that COMPLETED on a
  // machine that crashed before acknowledging is re-executed by that retry
  // and double-counted by reducers; with lineage the retry finds the
  // client-side completion marker and no-ops.
  Task<Status> Submit(Ctx ctx, ComputeProclet::Job job,
                      int64_t job_bytes = ComputeProclet::kDefaultJobBytes) {
    if (!state_->options.lineage) {
      co_return co_await SubmitRaw(ctx, std::move(job), job_bytes);
    }
    const int64_t seq = state_->next_job_seq++;
    std::shared_ptr<State> state = state_;
    ComputeProclet::Job wrapped =
        [state, seq, job = std::move(job)](Ctx jctx) -> Task<> {
      if (state->completed_jobs.count(seq) != 0) {
        ++state->deduped_jobs;  // duplicate delivery of a finished job
        co_return;
      }
      co_await job(jctx);
      // Completion marker at COMPLETION, not start: a crash mid-execution
      // leaves the job pending so lineage re-executes it.
      state->completed_jobs.insert(seq);
      state->pending.erase(seq);
    };
    state_->pending.emplace(seq, PendingJob{wrapped, job_bytes});
    Status submitted = co_await SubmitRaw(ctx, std::move(wrapped), job_bytes);
    if (!submitted.ok()) {
      state_->pending.erase(seq);  // never enqueued anywhere
    }
    co_return submitted;
  }

  // Re-executes every lineage-recorded job that has not completed (its
  // member died with the job queued or running). Jobs still queued on live
  // members get a second copy, but the dedup marker makes whichever runs
  // second a no-op. Deterministic: pending is walked in submission order.
  Task<Status> ResubmitIncomplete(Ctx ctx) {
    QS_CHECK_MSG(state_->options.lineage,
                 "ResubmitIncomplete requires Options::lineage");
    std::vector<std::pair<int64_t, PendingJob>> todo(state_->pending.begin(),
                                                     state_->pending.end());
    for (auto& [seq, pending] : todo) {
      if (state_->completed_jobs.count(seq) != 0) {
        state_->pending.erase(seq);
        continue;
      }
      Status submitted = co_await SubmitRaw(ctx, pending.job, pending.bytes);
      if (!submitted.ok()) {
        co_return submitted;
      }
    }
    co_return Status::Ok();
  }

  int64_t deduped_jobs() const { return state_->deduped_jobs; }
  int64_t pending_jobs() const {
    return static_cast<int64_t>(state_->pending.size());
  }

 private:
  Task<Status> SubmitRaw(Ctx ctx, ComputeProclet::Job job, int64_t job_bytes) {
    for (;;) {
      RemoveLostMembers(*ctx.rt);
      if (state_->members.empty()) {
        co_return Status::FailedPrecondition("pool has no members");
      }
      Ref<ComputeProclet> target = PickMember(ctx);
      // Named task: see the GCC 12 note in sim/task.h. The job is captured
      // by copy so a lost member leaves us something to retry with.
      auto call = target.Call(
          ctx,
          [job, job_bytes](ComputeProclet& p) mutable -> Task<Status> {
            co_return p.Submit(std::move(job), job_bytes);
          },
          job_bytes);
      try {
        Status status = co_await std::move(call);
        if (status.ok()) {
          ++state_->submitted;
        }
        co_return status;
      } catch (const ProcletLostError&) {
        RemoveLostMembers(*ctx.rt);
        // Loop: every iteration either removes at least one member or
        // succeeds, so this terminates.
      }
    }
  }

 public:
  // Drops members whose hosting machine crashed; returns how many were
  // dropped. Their queued jobs died with the machine (fail-stop) — only
  // revocation warnings, via the evacuator, save queues.
  int RemoveLostMembers(Runtime& rt) {
    int removed = 0;
    auto& members = state_->members;
    for (auto it = members.begin(); it != members.end();) {
      if (rt.IsLost(it->id())) {
        it = members.erase(it);
        ++removed;
        ++state_->lost_members;
      } else {
        ++it;
      }
    }
    if (removed > 0 && !members.empty()) {
      state_->next_member %= static_cast<int64_t>(members.size());
    }
    return removed;
  }

  // Replaces every lost member with a freshly placed one, restoring the
  // pool's capacity on the surviving machines. Returns how many members
  // were replaced (placement failures leave the pool smaller).
  Task<int> RecoverLost(Ctx ctx) {
    const int removed = RemoveLostMembers(*ctx.rt);
    int replaced = 0;
    for (int i = 0; i < removed; ++i) {
      Status grown = co_await Grow(ctx);
      if (!grown.ok()) {
        break;
      }
      ++replaced;
    }
    co_return replaced;
  }

  // Queued plus running jobs across members (runtime introspection, used by
  // Drain).
  int64_t Backlog(Runtime& rt) const {
    int64_t total = 0;
    for (const Ref<ComputeProclet>& member : state_->members) {
      if (auto* p = rt.UnsafeGet<ComputeProclet>(member.id())) {
        total += p->queue_depth() + p->inflight();
      }
    }
    return total;
  }

  // Polls until every member is idle.
  Task<> Drain(Ctx ctx, Duration poll = Duration::Micros(100)) {
    for (;;) {
      if (Backlog(*ctx.rt) == 0) {
        co_return;
      }
      co_await ctx.rt->sim().Sleep(poll);
    }
  }

  // Adds a member (placement chooses the machine with the most idle CPU).
  Task<Status> Grow(Ctx ctx) {
    PlacementRequest req;
    req.heap_bytes = state_->options.proclet_base_bytes;
    auto create = ctx.rt->Create<ComputeProclet>(ctx, req,
                                                 state_->options.workers_per_proclet);
    Result<Ref<ComputeProclet>> member = co_await std::move(create);
    if (!member.ok()) {
      co_return member.status();
    }
    state_->members.push_back(*member);
    co_return Status::Ok();
  }

  // Destroys the whole pool (draining first is the caller's business).
  Task<> Shutdown(Ctx ctx) {
    for (const Ref<ComputeProclet>& member : state_->members) {
      auto destroy = ctx.rt->Destroy(ctx, member.id());
      (void)co_await std::move(destroy);
    }
    state_->members.clear();
  }

 private:
  // Least-backlogged member; round-robin among ties.
  Ref<ComputeProclet> PickMember(Ctx ctx) {
    Runtime& rt = *ctx.rt;
    int64_t best_backlog = INT64_MAX;
    size_t best = 0;
    const size_t n = state_->members.size();
    for (size_t i = 0; i < n; ++i) {
      const size_t slot = (static_cast<size_t>(state_->next_member) + i) % n;
      const auto* p = rt.UnsafeGet<ComputeProclet>(state_->members[slot].id());
      const int64_t backlog =
          p == nullptr ? INT64_MAX - 1 : p->queue_depth() + p->inflight();
      if (backlog < best_backlog) {
        best_backlog = backlog;
        best = slot;
      }
    }
    state_->next_member = static_cast<int64_t>((best + 1) % n);
    return state_->members[best];
  }

  std::shared_ptr<State> state_;
};

}  // namespace quicksand

#endif  // QUICKSAND_COMPUTE_DIST_POOL_H_

#include "quicksand/cluster/cpu.h"

#include <algorithm>

#include "quicksand/common/check.h"

namespace quicksand {

// Awaiter that enqueues a request and suspends until the scheduler has
// serviced all of its work (or the cancel token fired). The request node
// lives in the awaiter, which lives in the calling coroutine's frame —
// stable across suspension.
struct CpuRunAwaiter {
  CpuScheduler& sched;
  Duration work;
  int priority;
  CpuCancelToken* token;
  CpuScheduler::Request request;

  bool await_ready() const noexcept {
    return work <= Duration::Zero() || (token != nullptr && token->cancelled());
  }
  void await_suspend(std::coroutine_handle<> h) {
    request.remaining = work;
    request.priority = priority;
    request.enqueued = sched.sim_.Now();
    request.waiter = h;
    request.token = token;
    if (token != nullptr) {
      QS_CHECK_MSG(token->sched_ == nullptr || token->sched_ == &sched,
                   "a CpuCancelToken may only cover one CpuScheduler at a time");
      token->sched_ = &sched;
      token->active_.push_back(&request);
    }
    sched.Enqueue(&request);
  }
  // Unserviced remainder; Zero when the work completed.
  Duration await_resume() const noexcept {
    if (!request.cancelled || request.remaining <= Duration::Zero()) {
      return Duration::Zero();
    }
    return request.remaining;
  }
};

void CpuCancelToken::Cancel() {
  cancelled_ = true;
  if (sched_ == nullptr) {
    return;
  }
  // CancelRequest mutates active_ via Deregister, so drain a copy.
  std::vector<void*> pending;
  pending.swap(active_);
  for (void* opaque : pending) {
    sched_->CancelRequest(static_cast<CpuScheduler::Request*>(opaque));
  }
  sched_ = nullptr;
}

CpuScheduler::CpuScheduler(Simulator& sim, int num_cores, Duration quantum)
    : sim_(sim), quantum_(quantum) {
  QS_CHECK(num_cores > 0);
  QS_CHECK(quantum > Duration::Zero());
  cores_ = std::vector<Core>(static_cast<size_t>(num_cores));
  for (size_t i = 0; i < cores_.size(); ++i) {
    cores_[i].sched = this;
    cores_[i].index = i;
    idle_cores_.push_back(i);
  }
}

CpuScheduler::~CpuScheduler() = default;

Task<> CpuScheduler::Run(Duration work, int priority) {
  QS_CHECK(priority >= 0);
  if (halted_) {
    co_return;
  }
  co_await CpuRunAwaiter{*this, work, priority, nullptr, {}};
}

Task<Duration> CpuScheduler::RunCancellable(Duration work, int priority,
                                            CpuCancelToken& token) {
  QS_CHECK(priority >= 0);
  if (token.cancelled() || halted_) {
    co_return work;
  }
  const Duration remaining = co_await CpuRunAwaiter{*this, work, priority, &token, {}};
  co_return remaining;
}

void CpuScheduler::Halt() {
  if (halted_) {
    return;
  }
  halted_ = true;
  for (auto& [priority, queue] : ready_) {
    for (Request* request : queue) {
      request->cancelled = true;
      --runnable_count_;
      Deregister(request);
      const std::coroutine_handle<> waiter = request->waiter;
      sim_.Post([waiter] { waiter.resume(); });
    }
    queue.clear();
  }
  for (size_t i = 0; i < cores_.size(); ++i) {
    Core& core = cores_[i];
    if (core.current == nullptr) {
      continue;
    }
    Request* request = core.current;
    // Fold the quanta served silently; the pending tick then runs
    // OnSliceEnd, which ignores it.
    const Duration silent = quantum_ * core.TakeSilentQuanta();
    total_busy_ += silent;
    request->remaining -= silent;
    core.current = nullptr;
    request->running = false;
    request->cancelled = true;
    --runnable_count_;
    Deregister(request);
    const std::coroutine_handle<> waiter = request->waiter;
    sim_.Post([waiter] { waiter.resume(); });
    idle_cores_.push_back(i);
  }
}

void CpuScheduler::Enqueue(Request* request) {
  QS_CHECK_MSG(!halted_, "Enqueue on a halted CpuScheduler");
  ready_[request->priority].push_back(request);
  ++runnable_count_;
  Dispatch();
  if (request->running) {
    return;
  }
  // It waits, so a core running equal or worse priority work will hand its
  // core over at the next quantum end instead of keeping it.
  for (Core& core : cores_) {
    if (core.current != nullptr && core.current->priority >= request->priority) {
      core.EndSilentRun();
    }
  }
}

bool CpuScheduler::WaitingAtOrAbove(int priority) const {
  for (const auto& [level, queue] : ready_) {
    if (level > priority) {
      break;
    }
    if (!queue.empty()) {
      return true;
    }
  }
  return false;
}

void CpuScheduler::Dispatch() {
  if (halted_) {
    return;
  }
  while (!idle_cores_.empty()) {
    Request* request = nullptr;
    for (auto& [priority, queue] : ready_) {
      if (!queue.empty()) {
        request = queue.front();
        queue.pop_front();
        break;
      }
    }
    if (request == nullptr) {
      return;
    }
    if (!request->serviced_once) {
      request->serviced_once = true;
      queueing_delay_[request->priority].Add(
          static_cast<double>((sim_.Now() - request->enqueued).nanos()));
    }
    Core& core = cores_[idle_cores_.back()];
    idle_cores_.pop_back();
    request->running = true;
    core.current = request;
    if (request->remaining < quantum_) {
      core.slice = request->remaining;
      sim_.ArmAt(sim_.Now() + core.slice, core);
      continue;
    }
    // Every full quantum but the last that ends with work left would hand
    // the core straight back to this request, unless a request of equal or
    // better priority waits.
    core.slice = quantum_;
    core.silent_granted = WaitingAtOrAbove(request->priority)
                              ? 0
                              : request->remaining.nanos() / quantum_.nanos() - 1;
    core.silent_ticks = core.silent_granted;
    sim_.ArmEvery(quantum_, core);
  }
}

void CpuScheduler::OnSliceEnd(Core& core) {
  if (halted_) {
    // Halt() already resumed and deregistered every request; this is a
    // stale slice-end event for a core that no longer exists.
    return;
  }
  Request* request = core.current;
  QS_CHECK(request != nullptr);
  const Duration served = core.slice + quantum_ * core.TakeSilentQuanta();
  core.current = nullptr;
  request->running = false;
  idle_cores_.push_back(core.index);
  total_busy_ += served;

  request->remaining -= served;
  if (request->remaining <= Duration::Zero() || request->cancelled) {
    --runnable_count_;
    Deregister(request);
    const std::coroutine_handle<> waiter = request->waiter;
    // Resume via the event queue so completion ordering matches event order.
    sim_.Post([waiter] { waiter.resume(); });
  } else {
    ready_[request->priority].push_back(request);  // round-robin within level
  }
  Dispatch();
}

void CpuScheduler::CancelRequest(Request* request) {
  request->cancelled = true;
  if (request->running) {
    // The current slice finishes (<= one quantum), then OnSliceEnd completes
    // the request with its remainder.
    for (Core& core : cores_) {
      if (core.current == request) {
        core.EndSilentRun();
      }
    }
    return;
  }
  // Queued: remove and resume immediately with the full remainder.
  auto it = ready_.find(request->priority);
  QS_CHECK(it != ready_.end());
  auto& queue = it->second;
  auto pos = std::find(queue.begin(), queue.end(), request);
  QS_CHECK_MSG(pos != queue.end(), "cancelled request not found in ready queue");
  queue.erase(pos);
  --runnable_count_;
  request->token = nullptr;  // already drained from the token's active list
  const std::coroutine_handle<> waiter = request->waiter;
  sim_.Post([waiter] { waiter.resume(); });
}

void CpuScheduler::Deregister(Request* request) {
  CpuCancelToken* token = request->token;
  if (token == nullptr) {
    return;
  }
  request->token = nullptr;
  auto pos = std::find(token->active_.begin(), token->active_.end(), request);
  if (pos != token->active_.end()) {
    token->active_.erase(pos);
  }
}

Duration CpuScheduler::QueueingDelay(int priority) const {
  auto it = queueing_delay_.find(priority);
  if (it == queueing_delay_.end()) {
    return Duration::Zero();
  }
  return Duration::Nanos(static_cast<int64_t>(it->second.value()));
}

Duration CpuScheduler::OldestWaitingAge(int priority) const {
  auto it = ready_.find(priority);
  if (it == ready_.end() || it->second.empty()) {
    return Duration::Zero();
  }
  return sim_.Now() - it->second.front()->enqueued;
}

int64_t CpuScheduler::RunnableAbove(int priority) const {
  int64_t count = 0;
  for (const auto& [level, queue] : ready_) {
    if (level < priority) {
      count += static_cast<int64_t>(queue.size());
    }
  }
  for (const Core& core : cores_) {
    if (core.current != nullptr && core.current->priority < priority) {
      ++count;
    }
  }
  return count;
}

int64_t CpuScheduler::queued_count(int priority) const {
  auto it = ready_.find(priority);
  return it == ready_.end() ? 0 : static_cast<int64_t>(it->second.size());
}

double CpuScheduler::LoadFactor() const {
  return static_cast<double>(runnable_count_) / static_cast<double>(cores_.size());
}

Duration CpuScheduler::TotalBusy() const {
  int64_t silent_quanta = 0;
  for (const Core& core : cores_) {
    silent_quanta += core.SilentQuantaPassed();
  }
  return total_busy_ + quantum_ * silent_quanta;
}

double CpuScheduler::UtilizationSince(SimTime earlier, Duration busy_at_earlier) const {
  const Duration wall = sim_.Now() - earlier;
  if (wall <= Duration::Zero()) {
    return 0.0;
  }
  const Duration busy = TotalBusy() - busy_at_earlier;
  return busy / (wall * num_cores());
}

}  // namespace quicksand

// CpuScheduler: models contention for a machine's cores.
//
// Work is expressed as "consume D of core time at priority p". Cores serve a
// priority run queue in fixed quanta (round-robin within a priority level),
// so a newly arriving high-priority request waits at most one quantum for a
// core. This is how the phased antagonist of Fig. 1 starves the filler
// application: its priority-0 requests occupy every core, and the filler's
// priority-1 requests observe a queueing-delay spike — the signal the local
// scheduler reacts to (§5 suggests queueing delay for idle-core detection,
// citing Breakwater).
//
// Each core is a Simulator::Timer. A full quantum ticks on the simulator's
// lane for the quantum period; a shorter last slice is armed at its end.
// While no request of equal or better priority waits, a quantum's end only
// hands the core back to the same request, so the core grants itself
// silent ticks for every such quantum of the request's remaining work: the
// lane re-arms them with the event order of real slice ends, and no
// callback runs until the last one. Three things end a silent run early, so
// the next tick runs the slice end for real: an Enqueue that leaves a
// request of equal or better priority waiting, a cancel of the running
// request, and Halt. Silent quanta fold into the busy time and the
// request's remainder at the next Fire (or Halt); TotalBusy() adds the ones
// not yet folded, so every reader sees a slice-end-per-quantum scheduler.

#ifndef QUICKSAND_CLUSTER_CPU_H_
#define QUICKSAND_CLUSTER_CPU_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "quicksand/common/stats.h"
#include "quicksand/common/time.h"
#include "quicksand/sim/simulator.h"
#include "quicksand/sim/task.h"

namespace quicksand {

// Priority levels; lower value is served first.
inline constexpr int kPriorityHigh = 0;    // latency-critical antagonists
inline constexpr int kPriorityNormal = 1;  // proclet work
inline constexpr int kPriorityLow = 2;     // background/best-effort

class CpuScheduler;

// Cancels a set of outstanding CPU requests: used by proclet migration to
// "unwedge" computation that is starved waiting for a core, so the work can
// move to another machine instead of waiting out the starvation (Nu migrates
// such threads with the proclet; we cancel-and-requeue their remaining work).
class CpuCancelToken {
 public:
  CpuCancelToken() = default;

  CpuCancelToken(const CpuCancelToken&) = delete;
  CpuCancelToken& operator=(const CpuCancelToken&) = delete;

  bool cancelled() const { return cancelled_; }
  // Wakes every registered request; each resumes with its remaining work.
  void Cancel();
  // Re-arms the token for use after a migration completes.
  void Reset() { cancelled_ = false; }

 private:
  friend class CpuScheduler;
  friend struct CpuRunAwaiter;

  bool cancelled_ = false;
  CpuScheduler* sched_ = nullptr;
  std::vector<void*> active_;  // Request* (opaque outside CpuScheduler)
};

class CpuScheduler {
 public:
  CpuScheduler(Simulator& sim, int num_cores, Duration quantum = Duration::Micros(20));
  ~CpuScheduler();

  CpuScheduler(const CpuScheduler&) = delete;
  CpuScheduler& operator=(const CpuScheduler&) = delete;

  // Consumes `work` of core time at `priority`; suspends until fully
  // serviced. Zero or negative work returns immediately.
  Task<> Run(Duration work, int priority = kPriorityNormal);

  // Like Run, but abandons the request when `token` is cancelled; returns
  // the unserviced remainder (Zero when the work completed).
  Task<Duration> RunCancellable(Duration work, int priority, CpuCancelToken& token);

  // Fail-stop: the cores halt. Every queued or running request resumes
  // immediately as cancelled (with its full remainder), and later Run /
  // RunCancellable calls return without consuming simulated time. Parked
  // work never hangs on a dead machine — the caller observes the machine's
  // death through the runtime, not through a stuck core.
  void Halt();
  bool halted() const { return halted_; }

  int num_cores() const { return static_cast<int>(cores_.size()); }
  Duration quantum() const { return quantum_; }

  // --- Scheduling signals ---------------------------------------------------

  // EWMA of enqueue -> first-service delay at the given priority. Rises
  // sharply when higher-priority work floods the cores.
  Duration QueueingDelay(int priority) const;

  // Instantaneous starvation signal: how long the oldest queued request at
  // this priority has been waiting for a core (Zero when none is queued).
  // Unlike the EWMA, this fires while requests are still stuck.
  Duration OldestWaitingAge(int priority) const;

  // Number of runnable (queued or running) requests with a strictly better
  // (numerically lower) priority. Starvation of `priority` only indicates
  // *pressure* — rather than self-saturation — when this is non-zero.
  int64_t RunnableAbove(int priority) const;

  // Requests currently queued or running.
  int64_t runnable_count() const { return runnable_count_; }
  int64_t queued_count(int priority) const;

  // (queued + running) / cores — an instantaneous load factor.
  double LoadFactor() const;

  // Cumulative busy core-time (sum over cores). Callers compute windowed
  // utilization from deltas of this value.
  Duration TotalBusy() const;

  // Windowed utilization in [0, 1]: fraction of core-time busy since the
  // given earlier reading.
  double UtilizationSince(SimTime earlier, Duration busy_at_earlier) const;

 private:
  friend class CpuCancelToken;

  struct Request {
    Duration remaining;
    int priority;
    SimTime enqueued;
    bool serviced_once = false;
    bool cancelled = false;
    bool running = false;
    CpuCancelToken* token = nullptr;
    std::coroutine_handle<> waiter;
  };

  struct Core final : Simulator::Timer {
    CpuScheduler* sched = nullptr;
    size_t index = 0;
    Request* current = nullptr;
    // Length of the slice whose end the next Fire() marks.
    Duration slice;
    // Silent ticks granted since the last Fire(); the ones already passed
    // are silent_granted - silent_ticks.
    int64_t silent_granted = 0;

    int64_t SilentQuantaPassed() const { return silent_granted - silent_ticks; }
    // Lets the next tick run the slice end.
    void EndSilentRun() {
      silent_granted -= silent_ticks;
      silent_ticks = 0;
    }
    // Ends the silent run and returns the quanta it served.
    int64_t TakeSilentQuanta() {
      EndSilentRun();
      return std::exchange(silent_granted, 0);
    }
    void Fire() override { sched->OnSliceEnd(*this); }
  };

  friend struct CpuRunAwaiter;

  void Enqueue(Request* request);
  void Dispatch();
  // Whether a request at `priority` or better is waiting for a core.
  bool WaitingAtOrAbove(int priority) const;
  void OnSliceEnd(Core& core);
  void CancelRequest(Request* request);
  void Deregister(Request* request);

  Simulator& sim_;
  Duration quantum_;
  std::vector<Core> cores_;
  std::vector<size_t> idle_cores_;
  // priority -> FIFO of waiting requests.
  std::map<int, std::deque<Request*>> ready_;
  int64_t runnable_count_ = 0;
  bool halted_ = false;
  Duration total_busy_ = Duration::Zero();
  mutable std::map<int, Ewma> queueing_delay_;
};

}  // namespace quicksand

#endif  // QUICKSAND_CLUSTER_CPU_H_

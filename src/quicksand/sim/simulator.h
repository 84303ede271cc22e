// Simulator: the discrete-event core.
//
// A single logical event queue orders all activity by (virtual time, insertion
// sequence). Coroutines suspend by scheduling their own resumption — directly
// for Sleep, or indirectly through WaitQueue-based primitives. The whole
// simulation is single-threaded and deterministic: a given program and seed
// always produce the same event order.
//
// The implementation is built for million-event throughput (DESIGN.md §12):
//
//  * Event records live in a flat slab with inline small-callback storage
//    (SmallFn) and generation-tagged slots. Schedule, Cancel, and fire are
//    O(1) slot operations with zero hashing and — for the common small
//    lambda — zero allocation. An EventId encodes (slot index, generation);
//    a stale id (already fired or cancelled) simply fails its generation
//    check, so Cancel of anything is a safe no-op.
//  * The queue itself is two timed tiers fronted by a FIFO "now lane":
//      - now lane: a ring of events scheduled at exactly Now(). Spawn,
//        Yield, and every WaitQueue wakeup land here — the dominant event
//        class — and fire in strict FIFO order for O(1) push/pop. These
//        arrive via Post(), which stores the callback inline in the ring
//        (no cancellation handle, so no slab slot and no random access).
//      - rung: a sorted run covering the next kRungWidth of virtual time,
//        drained from the front; near-future timers (cpu slices, short
//        sleeps) insert here, almost always at the tail.
//      - heap: a min-heap of plain 24-byte records for everything beyond
//        the rung window, plus overflow from a dense window (the rung is
//        size-capped so its sorted insert never turns O(n)); refilling the
//        rung pops the heap's prefix (which emerges already sorted), and
//        Step() merges the rung and heap fronts.
//      - tick lanes: one FIFO ring per period for Timers armed with
//        ArmEvery(period). Every entry of a lane was armed at Now() + period
//        with a rising seq, so a lane is sorted by (time, seq) without a
//        heap; a tick whose Timer has silent_ticks left re-arms itself one
//        period later without running any callback.
//    Ordering is bit-identical to a single (time, seq) priority queue: timed
//    entries at time T were all scheduled before Now() reached T, so they
//    precede every now-lane entry at T (scheduled at T) in sequence order,
//    and Step() merges the rung, heap and lane fronts by (time, seq).

#ifndef QUICKSAND_SIM_SIMULATOR_H_
#define QUICKSAND_SIM_SIMULATOR_H_

#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "quicksand/common/check.h"
#include "quicksand/common/time.h"
#include "quicksand/sim/fiber.h"
#include "quicksand/sim/ring.h"
#include "quicksand/sim/small_fn.h"
#include "quicksand/sim/task.h"

namespace quicksand {

// Identifies a scheduled event so it can be cancelled (e.g. RPC timeouts).
// Encodes (slot index + 1) << 32 | slot generation; 0 is never produced.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // --- Event scheduling -----------------------------------------------------

  // Negative delays are clamped to zero (see simulator.cc for the rationale).
  EventId Schedule(Duration delay, SmallFn fn);
  EventId ScheduleAt(SimTime when, SmallFn fn);
  // Fires `fn` at Now(), in FIFO order with every other now-lane event, but
  // without a cancellation handle: the callback lives inline in the ring, so
  // the slab (and its two dependent random accesses per event) is bypassed
  // entirely. This is the fast path for the dominant event class — Spawn
  // starts, Yield, and wait-queue wakeups — none of which are ever cancelled.
  void Post(SmallFn fn);
  // Cancelling an already-fired or unknown event is a no-op.
  void Cancel(EventId id);

  // --- Timers ---------------------------------------------------------------

  // An intrusive, uncancellable event: the owner embeds it, overrides Fire()
  // and re-arms it from there if it recurs. Arming one takes no slab slot and
  // no callback. Queue entries store the Timer's address, which is even,
  // where a live EventId always carries an odd generation, so one 64-bit
  // field holds either. A Timer is armed at most once at a time and must
  // outlive its pending tick.
  class Timer {
   public:
    Timer() = default;
    // The queue holds the address: an armed Timer must not be copied or moved.
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    // Lane ticks (ArmEvery) still to pass without calling Fire(). Such a
    // tick decrements this, counts in silent_tick_count() and re-arms the
    // timer one period later with a fresh seq: the (time, seq) key and the
    // seq use of a Fire() that re-armed itself. The owner may lower it at
    // any time; ArmAt ticks ignore it.
    int64_t silent_ticks = 0;

    virtual void Fire() = 0;

   protected:
    ~Timer() = default;
  };

  // Fires timer.Fire() at `when`, ordered by (time, seq) like ScheduleAt.
  void ArmAt(SimTime when, Timer& timer);
  // Fires at Now() + period from the FIFO tick lane for `period` (> 0),
  // after timer.silent_ticks silent ticks one period apart.
  void ArmEvery(Duration period, Timer& timer);

  // --- Fibers ---------------------------------------------------------------

  // Starts `body` as a detached fiber at the current time.
  Fiber Spawn(Task<> body, std::string name = "");

  // Runs `body` to completion, advancing virtual time as needed, and returns
  // its result. Aborts if the simulation deadlocks (event queue empties while
  // the task is still suspended). Intended for tests and benchmark drivers.
  template <typename T>
  T BlockOn(Task<T> body);

  // --- Execution ------------------------------------------------------------

  // Processes a single event, advancing time to it (through any silent
  // ticks before it). Returns false if the queue is empty.
  bool Step();

  // Processes events until the queue is empty.
  void RunUntilIdle();

  // Processes all events with time <= deadline, then sets Now() == deadline.
  void RunUntil(SimTime deadline);
  void RunFor(Duration d) { RunUntil(now_ + d); }

  // --- Awaitables -----------------------------------------------------------

  // co_await sim.Sleep(d): resume after d of virtual time. A non-positive
  // delay resumes inline without suspending (the fiber keeps running ahead of
  // queued events) — SleepUntil on a past deadline must not reorder the
  // caller behind unrelated work.
  auto Sleep(Duration d) {
    struct Awaiter {
      Simulator& sim;
      Duration delay;
      bool await_ready() const noexcept { return delay <= Duration::Zero(); }
      void await_suspend(std::coroutine_handle<> h) {
        sim.Schedule(delay, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  // co_await sim.SleepUntil(t): resume at absolute time t (immediately if past).
  auto SleepUntil(SimTime t) { return Sleep(t - now_); }

  // co_await sim.Yield(): requeue behind events already pending at Now().
  auto Yield() {
    struct Awaiter {
      Simulator& sim;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim.Post([h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  // --- Introspection --------------------------------------------------------

  size_t live_fiber_count() const { return live_fiber_count_; }
  int64_t failed_fiber_count() const { return failed_fibers_; }
  // Scheduled-but-not-yet-fired events, excluding cancelled ones. Tracked as
  // a direct live counter on the slab: the old queue-size-minus-cancelled-set
  // arithmetic silently underflowed when a cancelled id was double-counted.
  size_t pending_event_count() const { return live_events_; }
  // Callbacks run (events and Timer::Fire) since construction (perf
  // accounting for benches). Silent lane ticks are not among them.
  int64_t fired_event_count() const { return fired_events_; }
  // Silent lane ticks since construction: together with fired_event_count(),
  // the events one (time, seq) queue without silent ticks would have fired.
  int64_t silent_tick_count() const { return silent_ticks_; }

  // Implementation detail of Spawn; public only so the root-wrapping
  // coroutine in simulator.cc can name it.
  struct RootTask;

 private:
  // One slab slot. gen is odd while the slot holds a live event and even
  // while it is free; an EventId carries the odd gen it was allocated with,
  // so any pop or Cancel of a stale id fails the equality check.
  struct EventSlot {
    uint32_t gen = 0;
    uint32_t next_free = 0;
    SmallFn fn;
  };

  // A timed-tier record: 24 bytes, no indirection. Ordered by (time, seq).
  // `id` is a slab EventId (odd) or a Timer's address (even).
  struct TimedEntry {
    int64_t time_ns;
    uint64_t seq;
    uint64_t id;
  };
  struct TimedGreater {
    bool operator()(const TimedEntry& a, const TimedEntry& b) const {
      if (a.time_ns != b.time_ns) {
        return a.time_ns > b.time_ns;
      }
      return a.seq > b.seq;
    }
  };

  // Width of the rung (tier-1) window of virtual time. Wide enough that cpu
  // slices and short sleeps land in the rung (sorted-run insert, usually at
  // the tail), narrow enough that a refill stays a small batch.
  static constexpr int64_t kRungWidthNs = 64 * 1000;
  // The rung is a performance heuristic, not a correctness boundary: Step()
  // compares the rung and heap fronts, so an entry inside the window may
  // legally overflow to the heap. RungInsert only ever appends at the tail
  // (non-tail inserts go to the heap instead — a mid-run insert is an O(n)
  // memmove), and this cap bounds the rung's live length so a dense window
  // (100k+ timers at the million-proclet scale) cannot bloat it.
  static constexpr size_t kMaxRungEntries = 4096;

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // A now-lane ring entry. id == kInvalidEventId marks a Post() event whose
  // callback lives inline (uncancellable, so no slab slot is needed); an odd
  // id is a slab-backed Schedule-at-now event, an even one an ArmAt Timer.
  struct NowEntry {
    uint64_t id = kInvalidEventId;
    SmallFn fn;
  };

  // The FIFO of ticks armed with one period, sorted by construction.
  struct TickLane {
    int64_t period_ns;
    Ring<TimedEntry> ticks;
  };

  static bool IsTimer(uint64_t id) { return (id & 1u) == 0; }

  EventId AllocSlot(SmallFn fn);
  // Returns the slot for a live id, or nullptr if the id is stale/invalid.
  EventSlot* ResolveLive(EventId id);
  void FreeSlot(EventId id);

  // Queues a slab id or a Timer at `when` in the now lane, rung or heap.
  void QueueAt(SimTime when, uint64_t id);
  void RungInsert(TimedEntry entry);
  void RefillRung();
  void HeapPush(TimedEntry entry);

  // Queues `timer` at now_ + the lane's period and re-finds next_lane_.
  void LanePush(TickLane& lane, Timer& timer);
  // Points next_lane_ at the lane with the smallest front.
  void FindNextLane();

  // Fires the next event if its time is <= deadline_ns; false otherwise, or
  // when the queue is empty. Silent ticks on the way do not count.
  bool StepUntil(int64_t deadline_ns);

  void FiberFinished(internal::FiberState& state);
  void WakeJoiners(internal::FiberState& state);
  void DropRootRef(internal::FiberState* state);
  void LiveListRemove(internal::FiberState& state);

  SimTime now_;
  uint64_t next_seq_ = 1;
  uint64_t next_fiber_id_ = 1;
  bool tearing_down_ = false;
  int64_t failed_fibers_ = 0;

  // Event slab.
  std::vector<EventSlot> slots_;
  uint32_t free_head_ = kNoSlot;
  size_t live_events_ = 0;
  int64_t fired_events_ = 0;
  int64_t silent_ticks_ = 0;

  // Now lane: entries at time == now_. Post() events carry their callback
  // inline; Schedule-at-now events reference the slab.
  Ring<NowEntry> now_lane_;

  // Rung: sorted by (time, seq), drained from rung_pos_; holds near-future
  // entries (inserted while < rung_end_ns_, or batched in by RefillRung).
  // Heap: min-heap over (time, seq) for everything else, including overflow
  // from a dense rung window. Step() merges the two fronts.
  std::vector<TimedEntry> rung_;
  size_t rung_pos_ = 0;
  int64_t rung_end_ns_ = 0;
  std::vector<TimedEntry> heap_;

  // Tick lanes, one per ArmEvery period; next_lane_ indexes the one whose
  // front is the earliest tick, or is -1 when no tick is pending, so an
  // event core without ticks pays one compare per Step for them.
  std::vector<TickLane> lanes_;
  int next_lane_ = -1;

  // Fiber table: chunked arena plus an intrusive list of live fibers.
  std::shared_ptr<internal::FiberArena> fiber_arena_;
  internal::FiberState* live_head_ = nullptr;
  size_t live_fiber_count_ = 0;
};

template <typename T>
T Simulator::BlockOn(Task<T> body) {
  std::optional<T> result;
  // A free coroutine (not a capturing lambda) so all state lives in the frame.
  struct Runner {
    static Task<> Run(Task<T> inner, std::optional<T>& out) {
      out.emplace(co_await std::move(inner));
    }
  };
  Fiber fiber = Spawn(Runner::Run(std::move(body), result), "block_on");
  while (!fiber.done()) {
    QS_CHECK_MSG(Step(), "Simulator::BlockOn deadlocked: event queue empty");
  }
  QS_CHECK_MSG(!fiber.failed(), "Simulator::BlockOn task failed with an exception");
  return std::move(*result);
}

template <>
inline void Simulator::BlockOn(Task<void> body) {
  struct Runner {
    static Task<> Run(Task<void> inner) { co_await std::move(inner); }
  };
  Fiber fiber = Spawn(Runner::Run(std::move(body)), "block_on");
  while (!fiber.done()) {
    QS_CHECK_MSG(Step(), "Simulator::BlockOn deadlocked: event queue empty");
  }
  QS_CHECK_MSG(!fiber.failed(), "Simulator::BlockOn task failed with an exception");
}

}  // namespace quicksand

#endif  // QUICKSAND_SIM_SIMULATOR_H_

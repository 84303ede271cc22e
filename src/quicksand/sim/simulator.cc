#include "quicksand/sim/simulator.h"

#include <algorithm>
#include <utility>

#include "quicksand/common/logging.h"
#include "quicksand/sim/frame_pool.h"

namespace quicksand {

namespace {

SimTime LoggerClock(void* arg) { return static_cast<Simulator*>(arg)->Now(); }

}  // namespace

// The root coroutine wrapping every fiber body. Self-destroys at completion
// after notifying the simulator, so finished fibers hold no memory beyond
// their arena slot (released once the last Fiber handle drops).
struct Simulator::RootTask {
  struct promise_type {
    internal::FiberState* state = nullptr;

    // Root frames are as numerous as fibers — pool them like Task frames.
    static void* operator new(size_t bytes) { return FramePool::Alloc(bytes); }
    static void operator delete(void* p, size_t bytes) {
      FramePool::Free(p, bytes);
    }

    RootTask get_return_object() {
      return RootTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) const noexcept {
        internal::FiberState* state = h.promise().state;
        // Destroying at the final suspend point is legal; all locals are
        // already destroyed, only the frame itself remains.
        h.destroy();
        if (state != nullptr && state->sim != nullptr) {
          state->sim->FiberFinished(*state);
        }
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { state->error = std::current_exception(); }
  };

  std::coroutine_handle<promise_type> handle;
};

namespace {

Simulator::RootTask RunAsRoot(Task<> body) { co_await std::move(body); }

}  // namespace

Simulator::Simulator()
    : now_(SimTime::Zero()),
      fiber_arena_(std::make_shared<internal::FiberArena>()) {
  Logger::Get().SetClock(&LoggerClock, this);
}

Simulator::~Simulator() {
  tearing_down_ = true;
  while (live_head_ != nullptr) {
    internal::FiberState* state = live_head_;
    LiveListRemove(*state);
    std::coroutine_handle<> handle = state->handle;
    state->handle = {};
    handle.destroy();
    // The root coroutine's reference: dropping it may recycle the slot if no
    // Fiber handle is outstanding.
    DropRootRef(state);
  }
  live_fiber_count_ = 0;
  Logger::Get().ClearClock();
  // The slots_ and now_lane_ destructors release any still-pending callbacks.
}

// --- Event slab -------------------------------------------------------------

EventId Simulator::AllocSlot(SmallFn fn) {
  uint32_t index;
  if (free_head_ != kNoSlot) {
    index = free_head_;
    free_head_ = slots_[index].next_free;
  } else {
    QS_CHECK_MSG(slots_.size() < static_cast<size_t>(UINT32_MAX) - 1,
                 "event slab exhausted");
    slots_.emplace_back();
    index = static_cast<uint32_t>(slots_.size() - 1);
  }
  EventSlot& slot = slots_[index];
  ++slot.gen;  // even (free) -> odd (live)
  QS_DCHECK((slot.gen & 1u) == 1u);
  slot.fn = std::move(fn);
  return (static_cast<EventId>(index) + 1) << 32 | slot.gen;
}

Simulator::EventSlot* Simulator::ResolveLive(EventId id) {
  const uint64_t index_plus_1 = id >> 32;
  if (index_plus_1 == 0 || index_plus_1 > slots_.size()) {
    return nullptr;
  }
  EventSlot& slot = slots_[index_plus_1 - 1];
  if (slot.gen != static_cast<uint32_t>(id)) {
    return nullptr;  // already fired or cancelled (possibly slot reused)
  }
  return &slot;
}

void Simulator::FreeSlot(EventId id) {
  const uint32_t index = static_cast<uint32_t>((id >> 32) - 1);
  EventSlot& slot = slots_[index];
  ++slot.gen;  // odd (live) -> even (free): outstanding ids become stale
  slot.next_free = free_head_;
  free_head_ = index;
}

// --- Timed tiers ------------------------------------------------------------

void Simulator::HeapPush(TimedEntry entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), TimedGreater{});
}

void Simulator::RungInsert(TimedEntry entry) {
  if (rung_.size() - rung_pos_ >= kMaxRungEntries) {
    HeapPush(entry);  // dense window: bail before the insert turns O(n)
    return;
  }
  // New entries carry the largest seq so far, so upper_bound on (time, seq)
  // degenerates to "after every entry with time <= entry.time" — for the
  // common monotone-timer pattern that is the tail, an O(1) append.
  auto it = std::upper_bound(
      rung_.begin() + static_cast<ptrdiff_t>(rung_pos_), rung_.end(), entry,
      [](const TimedEntry& a, const TimedEntry& b) {
        if (a.time_ns != b.time_ns) {
          return a.time_ns < b.time_ns;
        }
        return a.seq < b.seq;
      });
  if (it != rung_.end()) {
    HeapPush(entry);  // mid-run insert would memmove the tail
    return;
  }
  rung_.push_back(entry);
}

void Simulator::RefillRung() {
  QS_DCHECK(rung_pos_ == rung_.size());
  rung_.clear();
  rung_pos_ = 0;
  if (heap_.empty()) {
    return;
  }
  // Window the rung at the heap's minimum; successive min-heap pops emerge
  // in (time, seq) order, so the rung is born sorted. The batch is capped —
  // in-window entries left behind (or overflowed by RungInsert) are merged
  // back in by Step()'s front comparison.
  rung_end_ns_ = heap_.front().time_ns + kRungWidthNs;
  while (!heap_.empty() && heap_.front().time_ns < rung_end_ns_ &&
         rung_.size() < kMaxRungEntries) {
    rung_.push_back(heap_.front());
    std::pop_heap(heap_.begin(), heap_.end(), TimedGreater{});
    heap_.pop_back();
  }
}

// --- Tick lanes -------------------------------------------------------------

static_assert(alignof(Simulator::Timer) % 2 == 0,
              "queue entries tell Timers from EventIds by an even address");

void Simulator::LanePush(TickLane& lane, Timer& timer) {
  lane.ticks.push(TimedEntry{now_.nanos() + lane.period_ns, next_seq_++,
                             reinterpret_cast<uint64_t>(&timer)});
  FindNextLane();
}

void Simulator::FindNextLane() {
  next_lane_ = -1;
  for (size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].ticks.empty()) {
      continue;
    }
    if (next_lane_ < 0 ||
        TimedGreater{}(lanes_[static_cast<size_t>(next_lane_)].ticks.front(),
                       lanes_[i].ticks.front())) {
      next_lane_ = static_cast<int>(i);
    }
  }
}

// --- Scheduling -------------------------------------------------------------

EventId Simulator::Schedule(Duration delay, SmallFn fn) {
  if (delay < Duration::Zero()) {
    // Negative delays arise legitimately from absolute-time arithmetic on
    // deadlines already in the past (SleepUntil(t) with t < Now(), re-arming
    // a timeout after a stall). They mean "as soon as possible": clamp into
    // the now lane, where the event fires in FIFO order with other ready
    // work instead of time-travelling or aborting. A *hugely* negative delay
    // is not a past deadline, though — it is arithmetic underflow (e.g.
    // subtracting Duration::Max()), and silently clamping one would mask the
    // bug, so debug builds reject it.
    QS_DCHECK_MSG(delay.nanos() > INT64_MIN / 2,
                  "delay is absurdly negative: arithmetic underflow, not a "
                  "past deadline");
    delay = Duration::Zero();
  }
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(SimTime when, SmallFn fn) {
  if (tearing_down_) {
    return kInvalidEventId;
  }
  QS_CHECK_MSG(when >= now_, "cannot schedule an event in the past");
  const EventId id = AllocSlot(std::move(fn));
  QueueAt(when, id);
  return id;
}

void Simulator::ArmAt(SimTime when, Timer& timer) {
  if (tearing_down_) {
    return;
  }
  QS_CHECK_MSG(when >= now_, "cannot arm a timer in the past");
  QueueAt(when, reinterpret_cast<uint64_t>(&timer));
}

void Simulator::QueueAt(SimTime when, uint64_t id) {
  const uint64_t seq = next_seq_++;
  ++live_events_;
  if (when == now_) {
    now_lane_.push(NowEntry{id, {}});  // seq is implicit: the ring is FIFO
  } else if (when.nanos() < rung_end_ns_) {
    RungInsert(TimedEntry{when.nanos(), seq, id});
  } else {
    HeapPush(TimedEntry{when.nanos(), seq, id});
  }
}

void Simulator::ArmEvery(Duration period, Timer& timer) {
  if (tearing_down_) {
    return;
  }
  QS_CHECK_MSG(period > Duration::Zero(), "a tick lane needs a positive period");
  ++live_events_;
  for (TickLane& lane : lanes_) {
    if (lane.period_ns == period.nanos()) {
      LanePush(lane, timer);
      return;
    }
  }
  lanes_.push_back(TickLane{period.nanos(), {}});
  LanePush(lanes_.back(), timer);
}

void Simulator::Post(SmallFn fn) {
  if (tearing_down_) {
    return;  // mirror ScheduleAt: drop wakeups scheduled by dying fibers
  }
  ++live_events_;
  now_lane_.push(NowEntry{kInvalidEventId, std::move(fn)});
}

void Simulator::Cancel(EventId id) {
  EventSlot* slot = ResolveLive(id);
  if (slot == nullptr) {
    return;  // unknown, already fired, or already cancelled
  }
  slot->fn.Reset();
  FreeSlot(id);
  --live_events_;
  // The queue entry (now lane, rung, or heap) remains and is skipped lazily
  // when popped: its generation no longer matches.
}

// --- Execution --------------------------------------------------------------

bool Simulator::Step() { return StepUntil(INT64_MAX); }

bool Simulator::StepUntil(int64_t deadline_ns) {
  // The deadline is checked on every entry, so a cancelled entry skipped
  // before it cannot carry the step past it.
  for (;;) {
    if (rung_pos_ == rung_.size() && now_lane_.empty()) {
      if (!heap_.empty()) {
        RefillRung();
      } else if (next_lane_ < 0) {
        return false;
      }
    }
    // Merge the rung, heap and lane fronts into one timed candidate (the
    // rung usually holds the minimum, but a dense window overflows to the
    // heap, and cpu quanta tick on the lanes).
    enum class Tier { kRung, kHeap, kLane };
    const TimedEntry* timed = rung_pos_ < rung_.size() ? &rung_[rung_pos_] : nullptr;
    Tier tier = Tier::kRung;
    if (!heap_.empty() &&
        (timed == nullptr || TimedGreater{}(*timed, heap_.front()))) {
      timed = &heap_.front();
      tier = Tier::kHeap;
    }
    if (next_lane_ >= 0) {
      const TimedEntry& tick = lanes_[static_cast<size_t>(next_lane_)].ticks.front();
      if (timed == nullptr || TimedGreater{}(*timed, tick)) {
        timed = &tick;
        tier = Tier::kLane;
      }
    }
    int64_t time_ns;
    uint64_t id;
    SmallFn fn;
    // A timed entry at time == now_ was scheduled before now_ reached that
    // time, hence precedes every now-lane entry (scheduled at now_) in
    // sequence order: timed-at-now fires before the now lane.
    if (timed != nullptr && (now_lane_.empty() || timed->time_ns <= now_.nanos())) {
      time_ns = timed->time_ns;
      if (time_ns > deadline_ns) {
        return false;
      }
      id = timed->id;
      if (tier == Tier::kLane) {
        TickLane& lane = lanes_[static_cast<size_t>(next_lane_)];
        lane.ticks.pop();
        Timer& timer = *reinterpret_cast<Timer*>(id);
        if (timer.silent_ticks > 0) {
          // A silent tick: the key and seq use of a Fire() that re-arms.
          --timer.silent_ticks;
          ++silent_ticks_;
          now_ = SimTime::FromNanos(time_ns);
          LanePush(lane, timer);
          continue;
        }
        FindNextLane();
      } else if (tier == Tier::kHeap) {
        std::pop_heap(heap_.begin(), heap_.end(), TimedGreater{});
        heap_.pop_back();
      } else {
        ++rung_pos_;
      }
    } else {
      time_ns = now_.nanos();
      if (time_ns > deadline_ns) {
        return false;
      }
      NowEntry entry = now_lane_.pop();
      id = entry.id;
      fn = std::move(entry.fn);  // the inline callback of a Post() event
    }
    Timer* timer = nullptr;
    if (id == kInvalidEventId) {
      // A Post() event: nothing to resolve.
    } else if (IsTimer(id)) {
      timer = reinterpret_cast<Timer*>(id);
    } else {
      EventSlot* slot = ResolveLive(id);
      if (slot == nullptr) {
        continue;  // cancelled: skip and keep draining
      }
      fn = std::move(slot->fn);
      FreeSlot(id);
    }
    --live_events_;
    ++fired_events_;
    QS_DCHECK(time_ns >= now_.nanos());
    now_ = SimTime::FromNanos(time_ns);
    if (timer != nullptr) {
      timer->Fire();
    } else {
      fn();
    }
    return true;
  }
}

void Simulator::RunUntilIdle() {
  while (Step()) {
  }
}

void Simulator::RunUntil(SimTime deadline) {
  while (StepUntil(deadline.nanos())) {
  }
  if (deadline > now_) {
    now_ = deadline;
  }
}

// --- Fibers -----------------------------------------------------------------

Fiber Simulator::Spawn(Task<> body, std::string name) {
  QS_CHECK_MSG(!tearing_down_, "Spawn during simulator teardown");
  internal::FiberState* state = fiber_arena_->Alloc();
  state->sim = this;
  state->id = next_fiber_id_++;
  state->name = std::move(name);
  state->refs = 1;  // the root coroutine's reference
  state->done = false;

  RootTask root = RunAsRoot(std::move(body));
  root.handle.promise().state = state;
  state->handle = root.handle;

  state->live_next = live_head_;
  state->live_prev = nullptr;
  if (live_head_ != nullptr) {
    live_head_->live_prev = state;
  }
  live_head_ = state;
  ++live_fiber_count_;

  // Start the fiber from the event loop (never synchronously inside Spawn),
  // so spawn order — not coroutine nesting — determines execution order.
  auto handle = root.handle;
  Post([handle] { handle.resume(); });
  return Fiber(fiber_arena_, state);
}

void Simulator::LiveListRemove(internal::FiberState& state) {
  if (state.live_prev != nullptr) {
    state.live_prev->live_next = state.live_next;
  } else {
    live_head_ = state.live_next;
  }
  if (state.live_next != nullptr) {
    state.live_next->live_prev = state.live_prev;
  }
  state.live_prev = nullptr;
  state.live_next = nullptr;
}

void Simulator::DropRootRef(internal::FiberState* state) {
  if (--state->refs == 0) {
    fiber_arena_->Release(state);
  }
}

void Simulator::FiberFinished(internal::FiberState& state) {
  state.done = true;
  state.handle = {};
  LiveListRemove(state);
  QS_DCHECK(live_fiber_count_ > 0);
  --live_fiber_count_;
  if (state.error && state.join_head == nullptr) {
    ++failed_fibers_;
    try {
      std::rethrow_exception(state.error);
    } catch (const std::exception& e) {
      QS_LOG_ERROR("sim", "fiber '%s' failed: %s", state.name.c_str(), e.what());
    } catch (...) {
      QS_LOG_ERROR("sim", "fiber '%s' failed with a non-std exception",
                   state.name.c_str());
    }
  }
  WakeJoiners(state);
  DropRootRef(&state);
}

void Simulator::WakeJoiners(internal::FiberState& state) {
  for (internal::JoinWaiter* waiter = state.join_head; waiter != nullptr;) {
    // The node lives in the joiner's frame; once resumed (later, from the now
    // lane) the frame moves past the await and the node dies — read `next`
    // before scheduling.
    internal::JoinWaiter* next = waiter->next;
    const std::coroutine_handle<> h = waiter->handle;
    Post([h] { h.resume(); });
    waiter = next;
  }
  state.join_head = nullptr;
  state.join_tail = nullptr;
}

}  // namespace quicksand

// Property test for the event core: drive the slab + ladder-queue scheduler
// with a seeded random mix of schedule / cancel / reschedule / chained
// schedules, and assert that the firing order matches a reference model — a
// std::multimap ordered by (time, seq), the specification the old single
// priority queue implemented directly. Also cross-checks the live-event
// counter against the model's size after every operation.
//
// The timer variant adds Simulator::Timers to the mix: ArmAt timers and
// ArmEvery tickers on two periods (one of them the exact rung width), with
// random silent budgets that other events lower or zero, and every delay on
// a 4us grid so ticks share their nanosecond with other events. The model
// keeps every tick, silent or not, as an entry keyed (time, seq); a silent
// one re-enters the model one period later with the next seq. At each
// callback the test checks which one fires, at what time, and how many
// silent ticks passed before it. RunUntil deadlines fall at random, and also
// just past a cancelled earliest event, before the next live entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "quicksand/sim/simulator.h"

namespace quicksand {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class ModelDriver {
 public:
  explicit ModelDriver(uint64_t seed, bool with_timers = false)
      : rng_(seed), with_timers_(with_timers) {
    for (size_t i = 0; i < kTickers; ++i) {
      tickers_[i].driver = this;
      tickers_[i].index = i;
    }
  }

  // (time_ns, seq): the total order every event fires in.
  using Key = std::pair<int64_t, uint64_t>;

  // Tick lane periods: one cpu-quantum-like, one exactly the rung width.
  static constexpr int64_t kPeriodsNs[2] = {20000, 64000};

  void ScheduleOne(bool allow_chain) {
    const uint64_t r = SplitMix64(rng_);
    const Duration delay = RandomDelay(r);
    const uint64_t token = next_token_++;
    const Key key{(sim_.Now() + delay).nanos(), next_seq_++};
    const bool chain = allow_chain && (r >> 60) == 0;
    const EventId id = sim_.Schedule(delay, [this, token, chain] {
      OnFire(token);
      if (chain) {
        ScheduleOne(/*allow_chain=*/false);  // schedule-during-drain coverage
      }
    });
    ASSERT_NE(id, kInvalidEventId);
    auto it = model_.emplace(key, token);
    by_id_.emplace(id, it);
    token_to_id_.emplace(token, id);
    live_.push_back(id);
  }

  void CancelRandom() {
    if (live_.empty()) {
      return;
    }
    const size_t pick = SplitMix64(rng_) % live_.size();
    const EventId id = live_[pick];
    live_[pick] = live_.back();
    live_.pop_back();
    sim_.Cancel(id);  // no-op if the event already fired — the model agrees:
    auto it = by_id_.find(id);
    if (it != by_id_.end()) {
      model_.erase(it->second);
      by_id_.erase(it);
    }
  }

  // Arms an idle timer: at a random delay, or on a tick lane with a random
  // silent budget (an ArmAt timer gets one too, which it must ignore).
  void ArmRandom() {
    const uint64_t r = SplitMix64(rng_);
    Ticker& ticker = tickers_[r % kTickers];
    if (ticker.armed) {
      return;
    }
    ticker.armed = true;
    ticker.silent_ticks = static_cast<int64_t>(r / kTickers % 13);
    if ((r >> 62) == 0) {
      ticker.every = false;
      ticker.budget = 0;
      const Duration delay = RandomDelay(SplitMix64(rng_));
      model_.emplace(Key{(sim_.Now() + delay).nanos(), next_seq_++}, TickToken(ticker));
      sim_.ArmAt(sim_.Now() + delay, ticker);
    } else {
      ticker.every = true;
      ticker.budget = ticker.silent_ticks;
      ticker.period_ns = kPeriodsNs[(r >> 61) & 1];
      model_.emplace(Key{sim_.Now().nanos() + ticker.period_ns, next_seq_++},
                     TickToken(ticker));
      sim_.ArmEvery(Duration::Nanos(ticker.period_ns), ticker);
    }
  }

  // Lowers a random lane ticker's silent budget, to zero half the time.
  void LowerRandomBudget() {
    const uint64_t r = SplitMix64(rng_);
    Ticker& ticker = tickers_[r % kTickers];
    if (!ticker.armed || !ticker.every) {
      return;
    }
    const int64_t lowered =
        (r >> 63) == 0 ? 0 : static_cast<int64_t>(r / kTickers % (ticker.budget + 1));
    ticker.silent_ticks = lowered;
    ticker.budget = lowered;
  }

  // RunUntil a deadline on the 4us grid up to 200us ahead: every live entry
  // at or before it fires (silent ticks pass), none after it, and Now()
  // lands on the deadline.
  void RunUntilSome() {
    RunUntilChecked(sim_.Now().nanos() +
                    static_cast<int64_t>(SplitMix64(rng_) % 51) * 4000);
  }

  // Cancels the earliest pending event, then runs until a deadline at or
  // after it and before the next live entry. The queue then holds a
  // cancelled entry inside the deadline with a live one past it, and
  // RunUntil must stop between them.
  void CancelEarliestThenRunUntil() {
    const auto it = std::find_if(model_.begin(), model_.end(), [](const auto& entry) {
      return (entry.second & kTickBit) == 0;
    });
    if (it == model_.end()) {
      return;
    }
    const int64_t cancelled_ns = it->first.first;
    const EventId id = token_to_id_.at(it->second);
    sim_.Cancel(id);
    by_id_.erase(id);
    const auto next = model_.erase(it);
    int64_t deadline_ns = cancelled_ns;
    if (next != model_.end() && next->first.first > cancelled_ns) {
      deadline_ns += static_cast<int64_t>(
          SplitMix64(rng_) % static_cast<uint64_t>(next->first.first - cancelled_ns));
      ++cancelled_heads_;
    }
    RunUntilChecked(deadline_ns);
  }

  void StepSome(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (!sim_.Step()) {
        break;
      }
    }
  }

  void CheckCounts() const {
    ASSERT_EQ(sim_.pending_event_count(), model_.size());
  }

  void DrainAndVerify() {
    sim_.RunUntilIdle();
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(sim_.pending_event_count(), 0u);
    EXPECT_EQ(sim_.silent_tick_count(), silent_);
    EXPECT_EQ(mismatches_, 0);
  }

  uint64_t Rand() { return SplitMix64(rng_); }
  int64_t cancelled_heads() const { return cancelled_heads_; }
  size_t scheduled() const { return next_token_; }
  int64_t silent() const { return silent_; }
  int64_t fired_ticks() const { return fired_ticks_; }
  int64_t shared_nanos() const { return shared_nanos_; }

 private:
  static constexpr size_t kTickers = 8;
  static constexpr uint64_t kTickBit = uint64_t{1} << 63;

  struct Ticker final : Simulator::Timer {
    ModelDriver* driver = nullptr;
    size_t index = 0;
    bool armed = false;
    bool every = false;
    int64_t period_ns = 0;
    int64_t budget = 0;  // the model's copy of silent_ticks
    void Fire() override { driver->OnTick(*this); }
  };

  static uint64_t TickToken(const Ticker& ticker) { return kTickBit | ticker.index; }

  void RunUntilChecked(int64_t deadline_ns) {
    sim_.RunUntil(SimTime::FromNanos(deadline_ns));
    PassSilentTicks(deadline_ns);
    if (!model_.empty()) {
      EXPECT_GT(model_.begin()->first.first, deadline_ns);
    }
    EXPECT_EQ(sim_.Now().nanos(), deadline_ns);
    EXPECT_EQ(sim_.silent_tick_count(), silent_);
  }

  // Mix of delays: the now lane (zero), the rung window (< 64us), and the
  // far heap — plus exact-boundary values to probe the rung edge. With
  // timers, every delay is a multiple of 4us, which both tick periods are,
  // so ticks and events meet on the same nanosecond.
  Duration RandomDelay(uint64_t r) const {
    int64_t ns = 0;
    switch (r % 8) {
      case 0:
      case 1:
      case 2:
        break;
      case 3:
      case 4:
        ns = static_cast<int64_t>(r / 8 % 64000);
        break;
      case 5:
        ns = 64000;  // exactly one rung width out
        break;
      default:
        ns = static_cast<int64_t>(r / 8 % 2000000);
        break;
    }
    return Duration::Nanos(with_timers_ ? ns / 4000 * 4000 : ns);
  }

  // Passes the silent ticks at the model's front, up to `up_to_ns`: each
  // re-enters one period later with the next seq.
  void PassSilentTicks(int64_t up_to_ns) {
    while (!model_.empty()) {
      const auto front = model_.begin();
      if ((front->second & kTickBit) == 0 || front->first.first > up_to_ns) {
        return;
      }
      Ticker& ticker = tickers_[front->second & ~kTickBit];
      if (!ticker.every || ticker.budget == 0) {
        return;
      }
      --ticker.budget;
      ++silent_;
      NoteTime(front->first.first, /*tick=*/true);
      model_.emplace(Key{front->first.first + ticker.period_ns, next_seq_++},
                     front->second);
      model_.erase(front);
    }
  }

  // Pops the model's front for a callback that just ran, after passing the
  // silent ticks queued ahead of it.
  void Expect(uint64_t token) {
    PassSilentTicks(INT64_MAX);
    ASSERT_FALSE(model_.empty()) << "callback " << token
                                 << " ran but the model expects nothing";
    const auto front = model_.begin();
    if (front->second != token) {
      ++mismatches_;
      ADD_FAILURE() << "callback " << token << " ran but the model expects "
                    << front->second << " at t=" << front->first.first
                    << " seq=" << front->first.second;
    }
    EXPECT_EQ(front->first.first, sim_.Now().nanos());
    EXPECT_EQ(sim_.silent_tick_count(), silent_);
    NoteTime(front->first.first, (token & kTickBit) != 0);
    model_.erase(front);
  }

  // Counts ticks that share a nanosecond with the entry before or after.
  void NoteTime(int64_t time_ns, bool tick) {
    if (time_ns == last_time_ns_ && (tick || last_was_tick_)) {
      ++shared_nanos_;
    }
    last_time_ns_ = time_ns;
    last_was_tick_ = tick;
  }

  void OnFire(uint64_t token) {
    Expect(token);
    by_id_.erase(token_to_id_.at(token));
    token_to_id_.erase(token);
  }

  void OnTick(Ticker& ticker) {
    Expect(TickToken(ticker));
    ++fired_ticks_;
    ticker.armed = false;
    // Like a cpu core at a slice end: often re-arm at once, sometimes change
    // another ticker's budget.
    const uint64_t r = SplitMix64(rng_);
    if (r % 4 != 0) {
      ArmRandom();
    }
    if (r % 8 == 1) {
      LowerRandomBudget();
    }
  }

  Simulator sim_;
  uint64_t rng_;
  bool with_timers_;
  uint64_t next_seq_ = 1;   // mirrors the simulator's insertion sequence
  uint64_t next_token_ = 0;
  std::multimap<Key, uint64_t> model_;
  std::unordered_map<EventId, std::multimap<Key, uint64_t>::iterator> by_id_;
  std::unordered_map<uint64_t, EventId> token_to_id_;
  std::vector<EventId> live_;  // may contain stale ids; Cancel tolerates them
  Ticker tickers_[kTickers];
  int64_t silent_ = 0;
  int64_t fired_ticks_ = 0;
  int64_t shared_nanos_ = 0;
  int64_t cancelled_heads_ = 0;
  int64_t last_time_ns_ = -1;
  bool last_was_tick_ = false;
  int mismatches_ = 0;
};

TEST(EventQueuePropertyTest, RandomScheduleCancelRescheduleMatchesModel) {
  constexpr size_t kTargetEvents = 100000;
  ModelDriver driver(/*seed=*/0x9d5c0ffeeULL);
  while (driver.scheduled() < kTargetEvents) {
    const uint64_t op = driver.Rand() % 10;
    if (op < 5) {
      driver.ScheduleOne(/*allow_chain=*/true);
    } else if (op < 7) {
      driver.CancelRandom();
    } else if (op == 7) {
      // Reschedule: cancel one and immediately schedule a fresh replacement.
      driver.CancelRandom();
      driver.ScheduleOne(/*allow_chain=*/false);
    } else {
      driver.StepSome(driver.Rand() % 16);
    }
    driver.CheckCounts();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  driver.DrainAndVerify();
}

TEST(EventQueuePropertyTest, SecondSeedMatchesModel) {
  ModelDriver driver(/*seed=*/42);
  while (driver.scheduled() < 20000) {
    const uint64_t op = driver.Rand() % 8;
    if (op < 4) {
      driver.ScheduleOne(/*allow_chain=*/true);
    } else if (op < 6) {
      driver.CancelRandom();
    } else {
      driver.StepSome(driver.Rand() % 32);
    }
    driver.CheckCounts();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  driver.DrainAndVerify();
}

TEST(EventQueuePropertyTest, TimersAndTickLanesMatchModel) {
  ModelDriver driver(/*seed=*/0x71c4a1e5ULL, /*with_timers=*/true);
  while (driver.scheduled() < 50000) {
    const uint64_t op = driver.Rand() % 13;
    if (op < 4) {
      driver.ScheduleOne(/*allow_chain=*/true);
    } else if (op < 6) {
      driver.CancelRandom();
    } else if (op < 8) {
      driver.ArmRandom();
    } else if (op == 8) {
      driver.LowerRandomBudget();
    } else if (op == 9) {
      driver.RunUntilSome();
    } else if (op == 10) {
      driver.CancelEarliestThenRunUntil();
    } else {
      driver.StepSome(driver.Rand() % 16);
    }
    driver.CheckCounts();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  driver.DrainAndVerify();
  // The mix must actually exercise what it is meant to.
  EXPECT_GT(driver.silent(), 100000);
  EXPECT_GT(driver.fired_ticks(), 30000);
  EXPECT_GT(driver.shared_nanos(), 10000);
  EXPECT_GT(driver.cancelled_heads(), 1000);
}

}  // namespace
}  // namespace quicksand

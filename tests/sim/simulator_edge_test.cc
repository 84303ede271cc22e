// Edge-case coverage for the event loop beyond the happy paths of
// simulator_test.cc.

#include <gtest/gtest.h>

#include "quicksand/sim/simulator.h"

namespace quicksand {
namespace {

TEST(SimulatorEdgeTest, CancelAfterFireIsNoop) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.Schedule(1_ms, [&] { fired = true; });
  sim.RunUntilIdle();
  EXPECT_TRUE(fired);
  sim.Cancel(id);  // already fired: must not crash or unfire
  sim.RunUntilIdle();
}

TEST(SimulatorEdgeTest, CancelFromInsideAnotherEvent) {
  Simulator sim;
  bool fired = false;
  const EventId victim = sim.Schedule(2_ms, [&] { fired = true; });
  sim.Schedule(1_ms, [&] { sim.Cancel(victim); });
  sim.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(SimulatorEdgeTest, PendingEventCountExcludesCancelled) {
  Simulator sim;
  const EventId a = sim.Schedule(1_ms, [] {});
  sim.Schedule(2_ms, [] {});
  EXPECT_EQ(sim.pending_event_count(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending_event_count(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.pending_event_count(), 0u);
}

Task<> SleepUntilPast(Simulator& sim, SimTime target, SimTime& resumed_at) {
  co_await sim.SleepUntil(target);
  resumed_at = sim.Now();
}

TEST(SimulatorEdgeTest, SleepUntilThePastResumesImmediately) {
  Simulator sim;
  sim.RunUntil(SimTime::Zero() + 10_ms);
  SimTime resumed;
  sim.Spawn(SleepUntilPast(sim, SimTime::Zero() + 5_ms, resumed), "p");
  sim.RunUntilIdle();
  EXPECT_EQ(resumed, SimTime::Zero() + 10_ms);  // no time travel
}

Task<> SpawnChildren(Simulator& sim, int depth, int64_t& count) {
  ++count;
  if (depth > 0) {
    Fiber left = sim.Spawn(SpawnChildren(sim, depth - 1, count), "l");
    Fiber right = sim.Spawn(SpawnChildren(sim, depth - 1, count), "r");
    co_await left.Join();
    co_await right.Join();
  }
}

TEST(SimulatorEdgeTest, RecursiveSpawnTree) {
  Simulator sim;
  int64_t count = 0;
  sim.BlockOn(SpawnChildren(sim, 6, count));
  EXPECT_EQ(count, (1 << 7) - 1);  // full binary tree of fibers
}

Task<> JoinSelfIndirect(Simulator& sim, Fiber* self, bool& done) {
  co_await sim.Sleep(1_ms);
  // Joining an already-finished fiber from elsewhere is covered; here we
  // only assert a fiber can query its own handle safely.
  EXPECT_TRUE(self->valid());
  EXPECT_FALSE(self->done());
  done = true;
}

TEST(SimulatorEdgeTest, FiberSeesItsOwnHandle) {
  Simulator sim;
  bool done = false;
  Fiber f;
  f = sim.Spawn(JoinSelfIndirect(sim, &f, done), "self");
  sim.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_TRUE(f.done());
}

TEST(SimulatorEdgeTest, ManySameTimeEventsKeepFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    sim.Schedule(1_ms, [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorEdgeTest, RunForZeroAdvancesNothing) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(1_ns, [&] { fired = true; });
  sim.RunFor(Duration::Zero());
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.Now(), SimTime::Zero());
}

TEST(SimulatorEdgeTest, RunUntilStopsAtDeadlineAfterCancelledHead) {
  // The queue head is cancelled and lies before the deadline; the next live
  // event lies after it. Skipping the head must not fire that event.
  Simulator sim;
  bool a_fired = false;
  bool b_fired = false;
  const EventId a = sim.Schedule(5_us, [&] { a_fired = true; });
  sim.Schedule(10_us, [&] { b_fired = true; });
  sim.Cancel(a);
  sim.RunUntil(SimTime::Zero() + 7_us);
  EXPECT_FALSE(a_fired);
  EXPECT_FALSE(b_fired);
  EXPECT_EQ(sim.Now(), SimTime::Zero() + 7_us);
  EXPECT_EQ(sim.pending_event_count(), 1u);
  sim.RunUntil(SimTime::Zero() + 10_us);
  EXPECT_TRUE(b_fired);
}

TEST(SimulatorEdgeTest, PendingEventCountSurvivesCancelFireRecancel) {
  Simulator sim;
  const EventId a = sim.Schedule(1_ms, [] {});
  const EventId b = sim.Schedule(2_ms, [] {});
  sim.Cancel(a);
  sim.Cancel(a);  // double cancel: the old queue-minus-cancelled-set math underflowed here
  EXPECT_EQ(sim.pending_event_count(), 1u);
  sim.RunUntilIdle();  // fires b
  EXPECT_EQ(sim.pending_event_count(), 0u);
  sim.Cancel(b);  // cancel after fire
  sim.Cancel(a);  // and cancel long-dead again
  EXPECT_EQ(sim.pending_event_count(), 0u);
  const EventId c = sim.Schedule(1_ms, [] {});
  EXPECT_EQ(sim.pending_event_count(), 1u);
  sim.Cancel(c);
  sim.Cancel(c);
  EXPECT_EQ(sim.pending_event_count(), 0u);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.pending_event_count(), 0u);
}

TEST(SimulatorEdgeTest, NegativeDelayClampsIntoNowLaneFifo) {
  // Negative delays (absolute-time arithmetic on past deadlines) mean "as
  // soon as possible": they clamp to zero and take their FIFO slot among the
  // other now-lane events instead of time-travelling or jumping the queue.
  Simulator sim;
  sim.RunUntil(SimTime::Zero() + 10_ms);
  std::vector<int> order;
  sim.Schedule(Duration::Zero(), [&] { order.push_back(0); });
  sim.Schedule(-5_ms, [&] { order.push_back(1); });
  sim.Schedule(Duration::Zero(), [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(sim.Now(), SimTime::Zero() + 10_ms);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

Task<> InlinePastSleep(Simulator& sim, bool& ran) {
  co_await sim.SleepUntil(SimTime::Zero() + 5_ms);  // 5ms behind Now()
  ran = true;
}

TEST(SimulatorEdgeTest, SleepUntilPastResumesInlineWithoutAnEvent) {
  // SleepUntil on a past deadline resumes the caller inline (await_ready),
  // not through the queue: digest-gated paths (rpc retransmit, disk service
  // loops) rely on not being reordered behind unrelated ready work.
  Simulator sim;
  sim.RunUntil(SimTime::Zero() + 10_ms);
  const int64_t before = sim.fired_event_count();
  bool ran = false;
  sim.Spawn(InlinePastSleep(sim, ran), "p");
  sim.RunUntilIdle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.fired_event_count() - before, 1);  // only the spawn wakeup fired
}

TEST(SimulatorEdgeDeathTest, SchedulingInThePastAborts) {
  Simulator sim;
  sim.RunUntil(SimTime::Zero() + 10_ms);
  EXPECT_DEATH(sim.ScheduleAt(SimTime::Zero() + 5_ms, [] {}), "in the past");
}

}  // namespace
}  // namespace quicksand

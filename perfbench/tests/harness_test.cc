// Unit tests of the benchmark runner's own machinery. Build and run:
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "runner/harness.h"
#include "runner/workloads.h"
#include "quicksand/sim/sync.h"

namespace perfbench {
namespace {

using quicksand::Simulator;
using quicksand::Task;

// --- Percentile rule -----------------------------------------------------------

TEST(PercentileRule, HighestPercentileWithTenSamplesAbove) {
  EXPECT_EQ(TailPercentile(0), 0.0);
  EXPECT_EQ(TailPercentile(19), 0.0);
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(99), 50.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(999), 90.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(9999), 99.0);
  EXPECT_EQ(TailPercentile(10000), 99.9);
  EXPECT_EQ(TailPercentile(100000), 99.99);
}

TEST(PercentileRule, NearestRank) {
  std::vector<int64_t> v(100);
  std::iota(v.begin(), v.end(), 1);  // 1..100, order must not matter
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(PercentileOf(v, 50), 50);
  EXPECT_EQ(PercentileOf(v, 99), 99);
  EXPECT_EQ(PercentileOf(v, 100), 100);
  EXPECT_EQ(PercentileOf({}, 50), 0);
}

TEST(PercentileRule, TailFallsBackAndReportsCount) {
  std::vector<int64_t> v(1000);
  std::iota(v.begin(), v.end(), 1);
  Tail t = TailOf(v);
  EXPECT_EQ(t.pct, 99.0);
  EXPECT_EQ(t.tail, 990);
  EXPECT_EQ(t.p50, 500);
  EXPECT_EQ(t.n, 1000u);

  v.resize(500);  // p99 would have 5 samples above it: report p90
  t = TailOf(v);
  EXPECT_EQ(t.pct, 90.0);
  EXPECT_EQ(t.tail, 450);
  EXPECT_EQ(t.n, 500u);

  v.resize(10);  // not even the median qualifies
  t = TailOf(v);
  EXPECT_EQ(t.pct, 0.0);
  EXPECT_EQ(t.tail, 0);
  EXPECT_EQ(t.n, 10u);
}

// --- Self time -------------------------------------------------------------------

TEST(SelfTime, SpanMinusChildCoverage) {
  std::vector<SpanRecord> spans = {
      {"root", 0, 100, 1, 0, 7},
      {"a", 10, 40, 2, 1, 7},
      {"b", 30, 60, 3, 1, 7},    // overlaps a: covered [10, 60)
      {"c", 90, 120, 4, 1, 7},   // clipped to the parent: [90, 100)
      {"leaf", 15, 20, 5, 2, 7},
      {"orphan", 0, 50, 6, 99, 7},  // parent not retained
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 5);
  EXPECT_EQ(self[5], 50);
}

// --- Open loop -------------------------------------------------------------------

// A server that answers nothing until `open` is set, then everything at once:
// a stall. Each call also records when it was sent.
struct StalledServer {
  Simulator* sim;
  quicksand::SimEvent* open;
  std::vector<int64_t>* sent;
  Task<bool> operator()(KvRequest) const {
    sent->push_back(sim->Now().nanos());
    auto wait = open->Wait();
    co_await std::move(wait);
    co_return true;
  }
};

TEST(OpenLoop, LatencyIsTakenFromTheDueTime) {
  Simulator sim;
  quicksand::SimEvent open(sim);
  std::vector<int64_t> sent;
  // Due at 3 us, 10 us and 12 us; the generator's timer ticks every 5 us,
  // so they are sent at 5, 10 and 15 us.
  const std::vector<KvRequest> schedule = {
      {1, 3000, 0, true}, {2, 10000, 0, true}, {3, 12000, 0, false}};
  OpenLoopLog log;
  const SimTime start = sim.Now();
  sim.Spawn(DriveOpenLoop(sim, schedule, start, Duration::Micros(5),
                          StalledServer{&sim, &open, &sent}, log));
  sim.Schedule(Duration::Micros(100), [&open] { open.Set(); });
  sim.RunUntil(start + Duration::Millis(1));

  ASSERT_EQ(log.done, 3u);
  EXPECT_EQ(sent, (std::vector<int64_t>{5000, 10000, 15000}));
  // Every request was sent before the previous one completed (open loop),
  // and each is charged from its due time: the tick wait and the stall.
  EXPECT_EQ(log.latency_ns, (std::vector<int64_t>{97000, 90000, 88000}));
  EXPECT_EQ(log.send_late_ns, (std::vector<int64_t>{2000, 0, 3000}));
  EXPECT_EQ(log.ok, (std::vector<int8_t>{1, 1, 1}));
  EXPECT_EQ(OpenLoopLatencyNs(3000, 100000), 97000);
}

// --- Seeds and inputs -------------------------------------------------------------

TEST(Seed, DrivesTheGeneratedInputs) {
  KvMix mix;
  mix.qps = 50000;
  mix.duration = Duration::Millis(20);
  mix.flash_start = Duration::Millis(5);
  mix.flash_end = Duration::Millis(10);
  mix.flash_multiplier = 3;
  mix.flash_key_fraction = 0.5;
  mix.flash_keys = 4;
  const auto a = GenerateKvSchedule(mix, InputSeed(1, 2));
  const auto b = GenerateKvSchedule(mix, InputSeed(1, 2));
  const auto c = GenerateKvSchedule(mix, InputSeed(2, 2));
  ASSERT_EQ(a.size(), b.size());
  bool differs = a.size() != c.size();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ns, b[i].due_ns);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].is_read, b[i].is_read);
    EXPECT_EQ(a[i].id, i + 1);
    if (i < c.size() && (a[i].due_ns != c[i].due_ns || a[i].key != c[i].key)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
  EXPECT_NE(InputSeed(1, 2), InputSeed(1, 3));
  EXPECT_NE(InputSeed(1, 2), InputSeed(2, 2));
}

std::string ModelOf(const std::string& json) {
  const size_t begin = json.find("\"model\":");
  return json.substr(begin, json.find('}', begin) - begin);
}

// The seed reaches the program only through the inputs: the same seed
// reproduces every model output, another seed gives other inputs and so
// other outputs, and every output check holds for both.
TEST(Seed, ChangesOnlyTheInputsHandedToTheProgram) {
  std::vector<std::string> models;
  for (uint64_t seed : {5, 5, 6}) {
    Options options;
    options.workload = "filler";
    options.seed = seed;
    Report report;
    RunFiller(options, report);
    EXPECT_TRUE(report.all_ok()) << report.ToJson();
    models.push_back(ModelOf(report.ToJson()));
  }
  EXPECT_EQ(models[0], models[1]);
  EXPECT_NE(models[0], models[2]);
}

}  // namespace
}  // namespace perfbench

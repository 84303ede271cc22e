// Differential test for CpuScheduler's silent quanta. RefCpu below is the
// scheduler as it was before cores became tick-lane timers: one slab event
// per slice end, whose callback requeues the request and dispatches again.
// Seeded scripts of Run / RunCancellable at three priorities, token cancels
// of queued and running requests, Halts (one in the middle of a lone
// request's silent run) and readers of every scheduling signal, many of them
// on exact quantum-boundary nanoseconds, replay against both schedulers. The
// two logs of completions and readings must be identical, and the slice-end
// events RefCpu fires must equal CpuScheduler's fired events plus silent
// ticks.

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "quicksand/cluster/cpu.h"
#include "quicksand/common/stats.h"
#include "quicksand/sim/simulator.h"

namespace quicksand {
namespace {

class RefToken;

class RefCpu {
 public:
  RefCpu(Simulator& sim, int num_cores, Duration quantum)
      : sim_(sim), quantum_(quantum), cores_(static_cast<size_t>(num_cores)) {
    for (size_t i = 0; i < cores_.size(); ++i) {
      idle_cores_.push_back(i);
    }
  }

  Task<> Run(Duration work, int priority) {
    if (halted_) {
      co_return;
    }
    co_await Awaiter{*this, work, priority, nullptr, {}};
  }

  Task<Duration> RunCancellable(Duration work, int priority, RefToken& token);

  void Halt() {
    if (halted_) {
      return;
    }
    halted_ = true;
    for (auto& [priority, queue] : ready_) {
      for (Request* request : queue) {
        request->cancelled = true;
        --runnable_count_;
        Deregister(request);
        Resume(request);
      }
      queue.clear();
    }
    for (size_t i = 0; i < cores_.size(); ++i) {
      Request* request = cores_[i];
      if (request == nullptr) {
        continue;
      }
      cores_[i] = nullptr;
      request->running = false;
      request->cancelled = true;
      --runnable_count_;
      Deregister(request);
      Resume(request);
      idle_cores_.push_back(i);
    }
  }

  Duration QueueingDelay(int priority) const {
    auto it = queueing_delay_.find(priority);
    return it == queueing_delay_.end()
               ? Duration::Zero()
               : Duration::Nanos(static_cast<int64_t>(it->second.value()));
  }
  Duration OldestWaitingAge(int priority) const {
    auto it = ready_.find(priority);
    if (it == ready_.end() || it->second.empty()) {
      return Duration::Zero();
    }
    return sim_.Now() - it->second.front()->enqueued;
  }
  int64_t RunnableAbove(int priority) const {
    int64_t count = 0;
    for (const auto& [level, queue] : ready_) {
      if (level < priority) {
        count += static_cast<int64_t>(queue.size());
      }
    }
    for (const Request* request : cores_) {
      if (request != nullptr && request->priority < priority) {
        ++count;
      }
    }
    return count;
  }
  int64_t runnable_count() const { return runnable_count_; }
  int64_t queued_count(int priority) const {
    auto it = ready_.find(priority);
    return it == ready_.end() ? 0 : static_cast<int64_t>(it->second.size());
  }
  double LoadFactor() const {
    return static_cast<double>(runnable_count_) / static_cast<double>(cores_.size());
  }
  Duration TotalBusy() const { return total_busy_; }
  double UtilizationSince(SimTime earlier, Duration busy_at_earlier) const {
    const Duration wall = sim_.Now() - earlier;
    if (wall <= Duration::Zero()) {
      return 0.0;
    }
    return (total_busy_ - busy_at_earlier) /
           (wall * static_cast<int>(cores_.size()));
  }

 private:
  friend class RefToken;

  struct Request {
    Duration remaining;
    int priority = 0;
    SimTime enqueued;
    bool serviced_once = false;
    bool cancelled = false;
    bool running = false;
    RefToken* token = nullptr;
    std::coroutine_handle<> waiter;
  };

  struct Awaiter {
    RefCpu& sched;
    Duration work;
    int priority;
    RefToken* token;
    Request request;

    bool await_ready() const noexcept;
    void await_suspend(std::coroutine_handle<> h);
    Duration await_resume() const noexcept {
      if (!request.cancelled || request.remaining <= Duration::Zero()) {
        return Duration::Zero();
      }
      return request.remaining;
    }
  };

  void Resume(Request* request) {
    const std::coroutine_handle<> waiter = request->waiter;
    sim_.Post([waiter] { waiter.resume(); });
  }

  void Enqueue(Request* request) {
    ready_[request->priority].push_back(request);
    ++runnable_count_;
    Dispatch();
  }

  void Dispatch() {
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
      const size_t core = idle_cores_.back();
      idle_cores_.pop_back();
      request->running = true;
      cores_[core] = request;
      const Duration slice = std::min(quantum_, request->remaining);
      sim_.Schedule(slice, [this, core, slice] { OnSliceEnd(core, slice); });
    }
  }

  void OnSliceEnd(size_t core, Duration slice) {
    if (halted_) {
      return;
    }
    Request* request = cores_[core];
    cores_[core] = nullptr;
    request->running = false;
    idle_cores_.push_back(core);
    total_busy_ += slice;
    request->remaining -= slice;
    if (request->remaining <= Duration::Zero() || request->cancelled) {
      --runnable_count_;
      Deregister(request);
      Resume(request);
    } else {
      ready_[request->priority].push_back(request);
    }
    Dispatch();
  }

  void CancelRequest(Request* request);
  void Deregister(Request* request);

  Simulator& sim_;
  Duration quantum_;
  std::vector<Request*> cores_;
  std::vector<size_t> idle_cores_;
  std::map<int, std::deque<Request*>> ready_;
  int64_t runnable_count_ = 0;
  bool halted_ = false;
  Duration total_busy_ = Duration::Zero();
  mutable std::map<int, Ewma> queueing_delay_;
};

class RefToken {
 public:
  bool cancelled() const { return cancelled_; }
  void Cancel() {
    cancelled_ = true;
    if (sched_ == nullptr) {
      return;
    }
    std::vector<RefCpu::Request*> pending;
    pending.swap(active_);
    for (RefCpu::Request* request : pending) {
      sched_->CancelRequest(request);
    }
    sched_ = nullptr;
  }
  void Reset() { cancelled_ = false; }

 private:
  friend class RefCpu;
  bool cancelled_ = false;
  RefCpu* sched_ = nullptr;
  std::vector<RefCpu::Request*> active_;
};

bool RefCpu::Awaiter::await_ready() const noexcept {
  return work <= Duration::Zero() || (token != nullptr && token->cancelled());
}

void RefCpu::Awaiter::await_suspend(std::coroutine_handle<> h) {
  request.remaining = work;
  request.priority = priority;
  request.enqueued = sched.sim_.Now();
  request.waiter = h;
  request.token = token;
  if (token != nullptr) {
    token->sched_ = &sched;
    token->active_.push_back(&request);
  }
  sched.Enqueue(&request);
}

Task<Duration> RefCpu::RunCancellable(Duration work, int priority, RefToken& token) {
  if (token.cancelled() || halted_) {
    co_return work;
  }
  const Duration remaining = co_await Awaiter{*this, work, priority, &token, {}};
  co_return remaining;
}

void RefCpu::CancelRequest(Request* request) {
  request->cancelled = true;
  if (request->running) {
    return;
  }
  auto& queue = ready_[request->priority];
  queue.erase(std::find(queue.begin(), queue.end(), request));
  --runnable_count_;
  request->token = nullptr;
  Resume(request);
}

void RefCpu::Deregister(Request* request) {
  RefToken* token = request->token;
  if (token == nullptr) {
    return;
  }
  request->token = nullptr;
  auto pos = std::find(token->active_.begin(), token->active_.end(), request);
  if (pos != token->active_.end()) {
    token->active_.erase(pos);
  }
}

// --- Scripts -----------------------------------------------------------------

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Op {
  enum Kind { kSubmit, kCancel, kHalt, kRead };
  Kind kind = kRead;
  int64_t at_ns = 0;
  size_t cpu = 0;
  int64_t work_ns = 0;
  int priority = kPriorityNormal;
  int token = -1;      // kSubmit: -1 for Run; kCancel: the token
  bool reset = false;  // kCancel: re-arm the token afterwards
  int chain = 0;       // kRead: follow-up reads, each a few quanta later
  int id = 0;
};

struct Script {
  int64_t quantum_ns = 0;
  int cores[2] = {1, 1};
  std::vector<Op> ops;
};

constexpr int kTokens = 16;  // token t covers requests on cpu t % 2 only

// cpu 0 takes a random contended mix; in half of the seeds cpu 1 runs one
// long request alone and halts in the middle of its silent run.
Script MakeScript(uint64_t seed) {
  uint64_t rng = seed;
  auto draw = [&rng](uint64_t n) { return SplitMix64(rng) % n; };
  Script script;
  const int64_t q = std::vector<int64_t>{20000, 7000, 64000}[seed % 3];
  script.quantum_ns = q;
  script.cores[0] = 1 + static_cast<int>(draw(4));
  script.cores[1] = 1 + static_cast<int>(draw(3));
  const int64_t horizon = 400 * q;
  auto some_time = [&] {
    return draw(5) != 0 ? static_cast<int64_t>(draw(400)) * q
                        : static_cast<int64_t>(draw(static_cast<uint64_t>(horizon)));
  };
  auto some_work = [&]() -> int64_t {
    const int64_t k = 1 + static_cast<int64_t>(draw(40));
    switch (draw(5)) {
      case 0:
        return 1 + static_cast<int64_t>(draw(static_cast<uint64_t>(q - 1)));
      case 1:
        return k * q;
      case 2:
        return (40 + k * 2) * q + 1 + static_cast<int64_t>(draw(static_cast<uint64_t>(q - 1)));
      default:
        return k * q + 1 + static_cast<int64_t>(draw(static_cast<uint64_t>(q - 1)));
    }
  };
  const bool lone_halt = seed % 2 == 1;
  int id = 0;
  for (int i = 0; i < 60; ++i) {
    Op op;
    op.kind = Op::kSubmit;
    op.at_ns = some_time();
    op.cpu = lone_halt || draw(10) < 7 ? 0 : 1;
    op.work_ns = some_work();
    op.priority = static_cast<int>(draw(3));
    if (draw(5) < 2) {
      op.token = static_cast<int>(op.cpu + 2 * draw(kTokens / 2));
    }
    op.id = id++;
    script.ops.push_back(op);
  }
  for (int i = 0; i < 20; ++i) {
    Op op;
    op.kind = Op::kCancel;
    op.at_ns = some_time();
    op.token = static_cast<int>(draw(kTokens));
    op.reset = draw(2) == 0;
    script.ops.push_back(op);
  }
  for (int i = 0; i < 60; ++i) {
    Op op;
    op.kind = Op::kRead;
    op.at_ns = some_time();
    op.cpu = draw(2);
    op.chain = static_cast<int>(draw(4));
    script.ops.push_back(op);
  }
  if (draw(4) == 0) {
    Op op;
    op.kind = Op::kHalt;
    op.at_ns = some_time();
    op.cpu = 0;
    script.ops.push_back(op);
  }
  if (lone_halt) {
    const int64_t start = static_cast<int64_t>(draw(100)) * q;
    const int64_t halt = start + (2 + static_cast<int64_t>(draw(29))) * q +
                         std::vector<int64_t>{0, 1, q / 2}[draw(3)];
    Op lone;
    lone.kind = Op::kSubmit;
    lone.at_ns = start;
    lone.cpu = 1;
    lone.work_ns = 40 * q + 3;
    lone.priority = static_cast<int>(draw(3));
    lone.token = draw(2) == 0 ? 1 : -1;
    lone.id = id++;
    script.ops.push_back(lone);
    Op stop;
    stop.kind = Op::kHalt;
    stop.at_ns = halt;
    stop.cpu = 1;
    script.ops.push_back(stop);
    for (int64_t at : {halt, halt - q / 2, halt + 2 * q}) {
      Op read;
      read.kind = Op::kRead;
      read.at_ns = at;
      read.cpu = 1;
      read.chain = 2;
      script.ops.push_back(read);
    }
    Op after = lone;
    after.at_ns = halt + q;
    after.id = id++;
    script.ops.push_back(after);
  }
  return script;
}

// Replays a script against one scheduler type and logs every completion and
// reading in the order they happen.
template <typename Cpu, typename Token>
class Replay {
 public:
  explicit Replay(const Script& script) : script_(script) {
    for (int cores : script.cores) {
      cpus_.push_back(
          std::make_unique<Cpu>(sim_, cores, Duration::Nanos(script.quantum_ns)));
    }
    for (int i = 0; i < kTokens; ++i) {
      tokens_.push_back(std::make_unique<Token>());
    }
  }

  std::vector<std::string> Run() {
    for (const Op& op : script_.ops) {
      sim_.ScheduleAt(SimTime::FromNanos(op.at_ns), [this, &op] { Apply(op); });
    }
    sim_.RunUntilIdle();
    for (size_t c = 0; c < cpus_.size(); ++c) {
      Log("end cpu" + std::to_string(c) + " busy=" +
          std::to_string(cpus_[c]->TotalBusy().nanos()));
    }
    return log_;
  }

  Simulator& sim() { return sim_; }

 private:
  void Apply(const Op& op) {
    switch (op.kind) {
      case Op::kSubmit:
        sim_.Spawn(Submit(op), "submit");
        break;
      case Op::kCancel:
        tokens_[static_cast<size_t>(op.token)]->Cancel();
        if (op.reset) {
          tokens_[static_cast<size_t>(op.token)]->Reset();
        }
        break;
      case Op::kHalt:
        cpus_[op.cpu]->Halt();
        Log("halt cpu" + std::to_string(op.cpu));
        break;
      case Op::kRead:
        Read(op.cpu, op.chain);
        break;
    }
  }

  Task<> Submit(const Op& op) {
    Cpu& cpu = *cpus_[op.cpu];
    Duration left = Duration::Zero();
    if (op.token >= 0) {
      left = co_await cpu.RunCancellable(Duration::Nanos(op.work_ns), op.priority,
                                         *tokens_[static_cast<size_t>(op.token)]);
    } else {
      co_await cpu.Run(Duration::Nanos(op.work_ns), op.priority);
    }
    Log("done #" + std::to_string(op.id) + " left=" + std::to_string(left.nanos()));
  }

  void Read(size_t c, int chain) {
    const Cpu& cpu = *cpus_[c];
    char util[64];
    std::snprintf(util, sizeof(util), "%.17g",
                  cpu.UtilizationSince(last_read_[c], last_busy_[c]));
    std::string line = "read cpu" + std::to_string(c) +
                       " busy=" + std::to_string(cpu.TotalBusy().nanos()) +
                       " util=" + util +
                       " load=" + std::to_string(cpu.LoadFactor()) +
                       " runnable=" + std::to_string(cpu.runnable_count());
    for (int p = 0; p <= 3; ++p) {
      line += " p" + std::to_string(p) + ":" +
              std::to_string(cpu.OldestWaitingAge(p).nanos()) + "/" +
              std::to_string(cpu.RunnableAbove(p)) + "/" +
              std::to_string(cpu.queued_count(p)) + "/" +
              std::to_string(cpu.QueueingDelay(p).nanos());
    }
    Log(line);
    last_read_[c] = sim_.Now();
    last_busy_[c] = cpu.TotalBusy();
    if (chain > 0) {
      // The next multiple of the quantum (or the one after): scheduled less
      // than a quantum ahead, such a read lands after a tick on the same
      // nanosecond; scheduled further ahead, before it.
      const int64_t q = script_.quantum_ns;
      const int64_t delay = q - sim_.Now().nanos() % q + chain % 2 * q;
      sim_.Schedule(Duration::Nanos(delay), [this, c, chain] { Read(c, chain - 1); });
    }
  }

  void Log(std::string line) {
    log_.push_back("t=" + std::to_string(sim_.Now().nanos()) + " " + std::move(line));
  }

  const Script& script_;
  Simulator sim_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  std::vector<std::unique_ptr<Token>> tokens_;
  SimTime last_read_[2] = {SimTime::Zero(), SimTime::Zero()};
  Duration last_busy_[2] = {Duration::Zero(), Duration::Zero()};
  std::vector<std::string> log_;
};

// Runs `script` on both schedulers; returns CpuScheduler's silent ticks.
int64_t ExpectParity(const Script& script, uint64_t seed) {
  Replay<RefCpu, RefToken> ref(script);
  Replay<CpuScheduler, CpuCancelToken> lanes(script);
  const std::vector<std::string> want = ref.Run();
  const std::vector<std::string> got = lanes.Run();
  for (size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    if (want[i] != got[i]) {
      ADD_FAILURE() << "seed " << seed << ", line " << i << "\n  reference: " << want[i]
                    << "\n  lanes:     " << got[i];
      return 0;
    }
  }
  EXPECT_EQ(want.size(), got.size()) << "seed " << seed;
  EXPECT_EQ(ref.sim().Now(), lanes.sim().Now()) << "seed " << seed;
  EXPECT_EQ(ref.sim().fired_event_count(),
            lanes.sim().fired_event_count() + lanes.sim().silent_tick_count())
      << "seed " << seed;
  EXPECT_EQ(ref.sim().silent_tick_count(), 0);
  return lanes.sim().silent_tick_count();
}

TEST(CpuQuantumParityTest, SeededScriptsMatchTheSliceEventPerQuantumScheduler) {
  int64_t silent = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    silent += ExpectParity(MakeScript(seed), seed);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  EXPECT_GT(silent, 100000);  // the scripts do exercise silent runs
}

TEST(CpuQuantumParityTest, HaltMidSilentRunFoldsTheSilentQuanta) {
  // One core, one request of 40 quanta: quanta 1..39 end silently. A Halt at
  // 10.5 quanta must see 10 quanta served, resume the request with 30 left,
  // and the later tick must run no slice end.
  constexpr int64_t q = 20000;
  Script script;
  script.quantum_ns = q;
  script.ops.push_back(Op{Op::kSubmit, 0, 0, 40 * q, kPriorityNormal, 0, false, 0, 7});
  script.ops.push_back(Op{Op::kRead, 10 * q, 0});
  script.ops.push_back(Op{Op::kHalt, 10 * q + q / 2, 0});
  script.ops.push_back(Op{Op::kRead, 10 * q + q / 2, 0});
  ExpectParity(script, 0);

  Replay<CpuScheduler, CpuCancelToken> lanes(script);
  const std::vector<std::string> log = lanes.Run();
  ASSERT_EQ(log.size(), 6u);
  EXPECT_EQ(log[0].rfind("t=200000 read cpu0 busy=180000 ", 0), 0u) << log[0];
  EXPECT_EQ(log[1], "t=210000 halt cpu0");
  EXPECT_EQ(log[2].rfind("t=210000 read cpu0 busy=200000 ", 0), 0u) << log[2];
  EXPECT_EQ(log[3], "t=210000 done #7 left=600000");
  EXPECT_EQ(log[4], "t=220000 end cpu0 busy=200000");
  EXPECT_EQ(lanes.sim().silent_tick_count(), 10);
}

TEST(CpuQuantumParityTest, ReadersOnAQuantumEndSeeItOnlyAfterItsTick) {
  // A 12-quantum request alone on a core. At 5q one read was scheduled long
  // before (it precedes the tick) and one in the last half quantum (it
  // follows the tick): they see 4 and 5 quanta busy.
  constexpr int64_t q = 20000;
  Script script;
  script.quantum_ns = q;
  script.ops.push_back(Op{Op::kSubmit, 0, 0, 12 * q, kPriorityHigh, -1, false, 0, 1});
  script.ops.push_back(Op{Op::kRead, 5 * q, 0});
  script.ops.push_back(Op{Op::kRead, 4 * q + q / 2, 0, 0, 0, -1, false, 2});
  ExpectParity(script, 0);

  Replay<CpuScheduler, CpuCancelToken> lanes(script);
  const std::vector<std::string> log = lanes.Run();
  ASSERT_GE(log.size(), 4u);
  EXPECT_EQ(log[0].rfind("t=90000 read cpu0 busy=80000 ", 0), 0u) << log[0];
  EXPECT_EQ(log[1].rfind("t=100000 read cpu0 busy=80000 ", 0), 0u) << log[1];
  EXPECT_EQ(log[2].rfind("t=100000 read cpu0 busy=100000 ", 0), 0u) << log[2];
  EXPECT_EQ(lanes.sim().silent_tick_count(), 11);
}

}  // namespace
}  // namespace quicksand

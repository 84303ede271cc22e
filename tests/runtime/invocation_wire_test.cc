// Wire-accounting coverage: every remote invocation must charge the fabric
// for exactly the bytes the cost model promises (argument payload + header
// out, result payload + header back), and bounces must pay for their
// redirects. These invariants keep every figure's communication costs
// honest.

#include <gtest/gtest.h>

#include "quicksand/common/bytes.h"
#include "quicksand/proclet/memory_proclet.h"

namespace quicksand {
namespace {

struct Fixture {
  Simulator sim;
  Cluster cluster{sim};
  std::unique_ptr<Runtime> rt;

  Fixture() {
    for (int i = 0; i < 3; ++i) {
      MachineSpec spec;
      spec.memory_bytes = 2_GiB;
      cluster.AddMachine(spec);
    }
    rt = std::make_unique<Runtime>(sim, cluster);
  }

  Ref<MemoryProclet> Make(MachineId where) {
    PlacementRequest req;
    req.heap_bytes = 4096;
    req.pinned = where;
    return *sim.BlockOn(rt->Create<MemoryProclet>(rt->CtxOn(0), req));
  }
};

TEST(InvocationWireTest, LocalCallsTouchNoWire) {
  Fixture f;
  Ref<MemoryProclet> p = f.Make(0);
  const int64_t before = f.cluster.fabric().total_bytes_sent();
  for (int i = 0; i < 10; ++i) {
    auto call = p.Call(f.rt->CtxOn(0), [](MemoryProclet& m) -> Task<int64_t> {
      co_return 1;
    });
    (void)f.sim.BlockOn(std::move(call));
  }
  EXPECT_EQ(f.cluster.fabric().total_bytes_sent(), before);
}

TEST(InvocationWireTest, RemoteCallChargesRequestAndResponse) {
  Fixture f;
  Ref<MemoryProclet> p = f.Make(1);
  // Prime the location cache so the directory lookup doesn't pollute the
  // measurement.
  auto warm = p.Call(f.rt->CtxOn(0), [](MemoryProclet&) -> Task<int64_t> {
    co_return 0;
  });
  (void)f.sim.BlockOn(std::move(warm));

  const int64_t before = f.cluster.fabric().total_bytes_sent();
  constexpr int64_t kRequestBytes = 5000;
  auto call = p.Call(
      f.rt->CtxOn(0),
      [](MemoryProclet&) -> Task<int64_t> { co_return 7; }, kRequestBytes);
  (void)f.sim.BlockOn(std::move(call));
  const int64_t sent = f.cluster.fabric().total_bytes_sent() - before;
  // Request: 5000 + 64 header. Response: sizeof(int64_t) + 64 header.
  EXPECT_EQ(sent, kRequestBytes + kRpcHeaderBytes + 8 + kRpcHeaderBytes);
}

TEST(InvocationWireTest, ResponsePayloadScalesWithResult) {
  Fixture f;
  Ref<MemoryProclet> p = f.Make(1);
  auto warm = p.Call(f.rt->CtxOn(0), [](MemoryProclet&) -> Task<int64_t> {
    co_return 0;
  });
  (void)f.sim.BlockOn(std::move(warm));

  const int64_t before = f.cluster.fabric().total_bytes_sent();
  auto call = p.Call(f.rt->CtxOn(0), [](MemoryProclet&) -> Task<std::string> {
    co_return std::string(10000, 'r');
  });
  (void)f.sim.BlockOn(std::move(call));
  const int64_t sent = f.cluster.fabric().total_bytes_sent() - before;
  // Request header only; response 10008 (string + length prefix) + header.
  EXPECT_EQ(sent, kRpcHeaderBytes + (10000 + 8) + kRpcHeaderBytes);
}

TEST(InvocationWireTest, BouncePaysRedirect) {
  Fixture f;
  Ref<MemoryProclet> p = f.Make(1);
  const Ctx ctx2 = f.rt->CtxOn(2);
  // Prime machine 2's cache with location 1.
  auto warm = p.Call(ctx2, [](MemoryProclet&) -> Task<int64_t> { co_return 0; });
  (void)f.sim.BlockOn(std::move(warm));
  // Migrate away; machine 2's next call bounces off machine 1.
  QS_CHECK(f.sim.BlockOn(f.rt->Migrate(p.id(), 0)).ok());

  const int64_t bounces_before = f.rt->stats().bounces;
  const int64_t before = f.cluster.fabric().total_bytes_sent();
  auto call = p.Call(ctx2, [](MemoryProclet&) -> Task<int64_t> { co_return 1; });
  (void)f.sim.BlockOn(std::move(call));
  EXPECT_EQ(f.rt->stats().bounces, bounces_before + 1);
  const int64_t sent = f.cluster.fabric().total_bytes_sent() - before;
  // Bounced request (header) + redirect (control msg) + directory re-lookup
  // (2 control msgs) + real request (header) + response (8 + header).
  const int64_t control = f.rt->config().control_message_bytes;
  EXPECT_EQ(sent, kRpcHeaderBytes + control + 2 * control + kRpcHeaderBytes + 8 +
                      kRpcHeaderBytes);
}

TEST(InvocationWireTest, AffinityRecordsRemoteTraffic) {
  Fixture f;
  Ref<MemoryProclet> a = f.Make(0);
  Ref<MemoryProclet> b = f.Make(1);
  Ctx from_a = f.rt->CtxOn(0);
  from_a.caller_proclet = a.id();
  auto call = b.Call(
      from_a, [](MemoryProclet&) -> Task<int64_t> { co_return 1; }, 1000);
  (void)f.sim.BlockOn(std::move(call));
  EXPECT_EQ(f.rt->AffinityBytes(a.id(), b.id()), 1000 + kRpcHeaderBytes);
}

TEST(InvocationWireTest, DirectoryLookupCountsControlMessages) {
  Fixture f;
  Ref<MemoryProclet> p = f.Make(1);
  const int64_t lookups_before = f.rt->stats().directory_lookups;
  // First call from machine 2: cache miss -> directory RPC.
  auto call = p.Call(f.rt->CtxOn(2), [](MemoryProclet&) -> Task<int64_t> {
    co_return 1;
  });
  (void)f.sim.BlockOn(std::move(call));
  EXPECT_EQ(f.rt->stats().directory_lookups, lookups_before + 1);
  // Second call: cache hit, no new lookup.
  auto again = p.Call(f.rt->CtxOn(2), [](MemoryProclet&) -> Task<int64_t> {
    co_return 1;
  });
  (void)f.sim.BlockOn(std::move(again));
  EXPECT_EQ(f.rt->stats().directory_lookups, lookups_before + 1);
}

}  // namespace
}  // namespace quicksand

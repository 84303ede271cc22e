// Fabric: the simulated datacenter network.
//
// Model: full-bisection fabric (any pair of machines can talk at line rate)
// with, per transfer,
//
//     delivery = max(now, sender NIC free) + bytes/bandwidth + latency
//
// i.e. store-and-forward through a per-machine egress NIC that serializes
// outgoing transfers FIFO, plus one-way propagation latency. Defaults are
// calibrated to the kernel-bypass stacks the paper builds on (Caladan/Nu):
// ~5 us one-way latency, 100 Gbps per NIC, ~1 us fixed per-message software
// overhead. Ingress contention is not modeled (documented simplification:
// the workloads here are dominated by egress serialization and propagation).
//
// Network faults: beyond fail-stop NIC death, individual directed links can
// be partitioned (messages silently dropped), lossy (per-message drop
// probability from a deterministic seeded Rng), or slow (fixed extra delay).
// Crucially, the SENDER cannot tell: a dropped message still pays its full
// egress serialization and propagation before vanishing, exactly like a
// packet blackholed in a real network. Callers learn about loss only through
// timeouts (the runtime's invocation retries) or a failure detector
// (health/), never from Transfer's return value at the instant of sending.

#ifndef QUICKSAND_NET_FABRIC_H_
#define QUICKSAND_NET_FABRIC_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "quicksand/cluster/machine.h"
#include "quicksand/common/random.h"
#include "quicksand/common/stats.h"
#include "quicksand/common/time.h"
#include "quicksand/sim/simulator.h"
#include "quicksand/sim/task.h"

namespace quicksand {

struct FabricConfig {
  Duration one_way_latency = Duration::Micros(5);
  int64_t bandwidth_bytes_per_sec = 12'500'000'000;  // 100 Gbps
  Duration per_message_overhead = Duration::Micros(1);
  // Bulk transfers serialize through the NIC in frames of this size, so a
  // small control message waits at most one frame — not the whole bulk
  // transfer (real NICs interleave packets; without this, a 256 MiB
  // migration would head-of-line-block microsecond RPCs for ~20ms).
  int64_t frame_bytes = 64 * 1024;
  // Seed for the per-fabric loss Rng (drawn once per message, only on links
  // with a nonzero loss probability — fault-free runs never touch it).
  uint64_t fault_seed = 0x51c4a17d5a9b0c3dull;
};

// Fixed framing cost added to every RPC request and response payload: the
// legs of remote proclet invocations, replication log shipping and backup
// reads.
inline constexpr int64_t kRpcHeaderBytes = 64;

// Outcome of one fabric transfer, from the receiver's point of view.
enum class Delivery {
  kDelivered,       // arrived intact
  kEndpointFailed,  // either endpoint fail-stopped (before or in flight)
  kDropped,         // lost to a partition or packet loss; both endpoints live
};

class Fabric {
 public:
  Fabric(Simulator& sim, FabricConfig config)
      : sim_(sim), config_(config), fault_rng_(config.fault_seed) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Registers a machine's NIC; must be called once per machine, in id order.
  void AddNic(MachineId id);

  // Moves `bytes` from src to dst; suspends the caller until delivery (or
  // until the point of loss). src == dst is free (local "transfer").
  // Returns false when the bytes did NOT arrive — endpoint failure, link
  // partition, or packet loss. Callers that never inject faults may ignore
  // the result; callers that distinguish death from loss use
  // TransferDetailed.
  Task<bool> Transfer(MachineId src, MachineId dst, int64_t bytes);

  // Transfer with a three-way outcome. A kDropped message charged the full
  // egress + propagation cost before vanishing: the sender has already paid
  // by the time it learns nothing.
  Task<Delivery> TransferDetailed(MachineId src, MachineId dst, int64_t bytes);

  // Fail-stop: aborts the machine's NIC. In-progress and future transfers
  // touching this machine resolve false at their next frame boundary.
  void FailMachine(MachineId id);
  bool MachineFailed(MachineId id) const;

  // --- Network faults (all directed; deterministic) -------------------------

  // Cuts the directed link src -> dst (messages silently dropped) or
  // restores it.
  void SetLinkDown(MachineId src, MachineId dst, bool down);
  // One-way partition: src can no longer reach dst (dst -> src unaffected).
  void PartitionOneWay(MachineId src, MachineId dst) { SetLinkDown(src, dst, true); }
  // Bidirectional partition between a and b.
  void Partition(MachineId a, MachineId b);
  void HealOneWay(MachineId src, MachineId dst) { SetLinkDown(src, dst, false); }
  void Heal(MachineId a, MachineId b);
  // Cuts every link to and from `m` (the classic "machine fell off the
  // network but is still running" gray failure), and the inverse.
  void IsolateMachine(MachineId m);
  void HealMachine(MachineId m);
  // Per-message drop probability on the directed link (0 disables).
  void SetLinkLoss(MachineId src, MachineId dst, double probability);
  // Fixed extra propagation delay on the directed link (a delay spike;
  // Duration::Zero() clears it).
  void SetLinkDelay(MachineId src, MachineId dst, Duration extra);
  bool LinkDown(MachineId src, MachineId dst) const;

  // Time a transfer of `bytes` would take on an idle NIC (no queueing).
  Duration UnloadedTransferTime(int64_t bytes) const;

  const FabricConfig& config() const { return config_; }

  // --- Introspection --------------------------------------------------------

  int64_t total_bytes_sent() const { return total_bytes_; }
  int64_t total_messages() const { return total_messages_; }
  int64_t aborted_transfers() const { return aborted_transfers_; }
  // Messages lost to partitions or packet loss (endpoints alive).
  int64_t dropped_transfers() const { return dropped_transfers_; }
  // Messages delivered late because of a link delay spike.
  int64_t delayed_transfers() const { return delayed_transfers_; }
  // Cumulative busy time of a machine's egress NIC.
  Duration NicBusy(MachineId id) const;

 private:
  struct Nic {
    SimTime free_at = SimTime::Zero();
    Duration busy = Duration::Zero();
    bool failed = false;
  };

  struct LinkFault {
    bool down = false;
    double loss_probability = 0.0;
    Duration extra_delay = Duration::Zero();

    bool Clear() const {
      return !down && loss_probability == 0.0 && extra_delay == Duration::Zero();
    }
  };

  static uint64_t LinkKey(MachineId src, MachineId dst) {
    return (static_cast<uint64_t>(src) << 32) | static_cast<uint64_t>(dst);
  }
  const LinkFault* FindFault(MachineId src, MachineId dst) const;
  // Mutates the fault entry; erases it again if the edit leaves it clear, so
  // a fully healed fabric is indistinguishable from one never faulted.
  template <typename Fn>
  void EditFault(MachineId src, MachineId dst, Fn edit) {
    QS_CHECK(src < nics_.size() && dst < nics_.size());
    QS_CHECK_MSG(src != dst, "a machine cannot be partitioned from itself");
    auto [it, inserted] = link_faults_.try_emplace(LinkKey(src, dst));
    edit(it->second);
    if (it->second.Clear()) {
      link_faults_.erase(it);
    }
  }

  Simulator& sim_;
  FabricConfig config_;
  std::vector<Nic> nics_;
  std::unordered_map<uint64_t, LinkFault> link_faults_;
  Rng fault_rng_;
  int64_t total_bytes_ = 0;
  int64_t total_messages_ = 0;
  int64_t aborted_transfers_ = 0;
  int64_t dropped_transfers_ = 0;
  int64_t delayed_transfers_ = 0;
};

}  // namespace quicksand

#endif  // QUICKSAND_NET_FABRIC_H_

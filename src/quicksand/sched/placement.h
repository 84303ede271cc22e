// Placement policies: where to put a new (or migrating) proclet.
//
// Because resource proclets each consume one resource type, placement can
// score machines along that single dimension: memory proclets go where free
// bytes are, compute proclets go where cores are idle (§3.1 — this is what
// makes combining the stranded halves of two imbalanced machines possible in
// Fig. 2).

#ifndef QUICKSAND_SCHED_PLACEMENT_H_
#define QUICKSAND_SCHED_PLACEMENT_H_

#include <memory>
#include <optional>
#include <string>

#include "quicksand/cluster/cluster.h"
#include "quicksand/common/status.h"
#include "quicksand/runtime/proclet.h"

namespace quicksand {

struct PlacementRequest {
  ProcletKind kind = ProcletKind::kMemory;
  int64_t heap_bytes = 0;                 // initial memory demand
  std::optional<MachineId> pinned;        // force placement (overrides policy)
  MachineId exclude = kInvalidMachineId;  // never place here (evictions)
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  // Chooses a hosting machine; ResourceExhausted if nothing fits.
  virtual Result<MachineId> Place(const PlacementRequest& request, Cluster& cluster) = 0;

  virtual std::string name() const = 0;

 protected:
  // True if `m` can host the request at all (memory fit + not excluded).
  static bool Feasible(const PlacementRequest& request, const Machine& m);
};

// Scans machines in id order and takes the first feasible one.
class FirstFitPolicy : public PlacementPolicy {
 public:
  Result<MachineId> Place(const PlacementRequest& request, Cluster& cluster) override;
  std::string name() const override { return "first_fit"; }
};

// Scores machines by the resource the proclet consumes: most free memory for
// memory/storage proclets, lowest CPU load factor for compute proclets.
class BestFitPolicy : public PlacementPolicy {
 public:
  Result<MachineId> Place(const PlacementRequest& request, Cluster& cluster) override;
  std::string name() const override { return "best_fit"; }
};

// Per-machine desirability score for a request; higher is better. Shared by
// the policies and by the reactive schedulers choosing migration targets.
// `exclude_one_hosted` discounts one hosted compute proclet — used when
// scoring a proclet's *current* machine so its own presence doesn't make
// every other machine look better (which would oscillate).
double PlacementScore(const PlacementRequest& request, const Machine& m,
                      bool exclude_one_hosted = false);

// Anti-affine placement for a durability replica (checkpoint depot or
// backup): the machine with the most free memory that is accepting, can fit
// `bytes`, and is NOT `avoid` — so one machine failure never takes out both
// the primary and its replica. ResourceExhausted when no such machine
// exists (single-machine cluster, or everything full).
Result<MachineId> ChooseReplicaTarget(Cluster& cluster, MachineId avoid,
                                      int64_t bytes);

}  // namespace quicksand

#endif  // QUICKSAND_SCHED_PLACEMENT_H_

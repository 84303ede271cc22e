#include "quicksand/sched/placement.h"

#include <algorithm>

namespace quicksand {

bool PlacementPolicy::Feasible(const PlacementRequest& request, const Machine& m) {
  if (m.id() == request.exclude) {
    return false;
  }
  // Failed machines host nothing; revoked machines are about to.
  if (!m.accepting()) {
    return false;
  }
  return m.memory().free() >= request.heap_bytes;
}

double PlacementScore(const PlacementRequest& request, const Machine& m,
                      bool exclude_one_hosted) {
  switch (request.kind) {
    case ProcletKind::kCompute: {
      // Idle capacity: cores not occupied by runnable work, discounted by the
      // compute proclets already placed here. The ratio form spreads a batch
      // of placements *proportionally to capacity* (a 10-core machine gets
      // ~5x the proclets of a 2-core one), instead of piling everything onto
      // the largest machine until runtime load appears.
      const double idle =
          std::max(0.0, static_cast<double>(m.spec().cores) *
                            (1.0 - m.cpu().LoadFactor()));
      double hosted = static_cast<double>(m.hosted_compute());
      if (exclude_one_hosted && hosted > 0) {
        hosted -= 1.0;
      }
      return idle / (1.0 + hosted);
    }
    case ProcletKind::kMemory:
      return static_cast<double>(m.memory().free());
    case ProcletKind::kStorage:
      // Storage proclets chase free disk capacity, not RAM.
      return static_cast<double>(m.disk().capacity().free());
  }
  return 0.0;
}

Result<MachineId> FirstFitPolicy::Place(const PlacementRequest& request,
                                        Cluster& cluster) {
  if (request.pinned.has_value()) {
    return *request.pinned;
  }
  for (MachineId id = 0; id < cluster.size(); ++id) {
    if (Feasible(request, cluster.machine(id))) {
      return id;
    }
  }
  return Status::ResourceExhausted("no machine fits proclet");
}

Result<MachineId> BestFitPolicy::Place(const PlacementRequest& request,
                                       Cluster& cluster) {
  if (request.pinned.has_value()) {
    return *request.pinned;
  }
  MachineId best = kInvalidMachineId;
  double best_score = -1.0;
  for (MachineId id = 0; id < cluster.size(); ++id) {
    const Machine& m = cluster.machine(id);
    if (!Feasible(request, m)) {
      continue;
    }
    const double score = PlacementScore(request, m);
    if (score > best_score) {
      best_score = score;
      best = id;
    }
  }
  if (best == kInvalidMachineId) {
    return Status::ResourceExhausted("no machine fits proclet");
  }
  return best;
}

Result<MachineId> ChooseReplicaTarget(Cluster& cluster, MachineId avoid,
                                      int64_t bytes) {
  MachineId best = kInvalidMachineId;
  int64_t best_free = -1;
  for (MachineId id = 0; id < cluster.size(); ++id) {
    if (id == avoid) {
      continue;
    }
    const Machine& m = cluster.machine(id);
    if (!m.accepting()) {
      continue;
    }
    const int64_t free = m.memory().free();
    if (free >= bytes && free > best_free) {
      best_free = free;
      best = id;
    }
  }
  if (best == kInvalidMachineId) {
    return Status::ResourceExhausted("no anti-affine machine can hold replica");
  }
  return best;
}

}  // namespace quicksand

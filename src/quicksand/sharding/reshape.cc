#include "quicksand/sharding/reshape.h"

namespace quicksand::internal {

Task<bool> CopyPayload(Runtime& rt, MachineId src, MachineId dst, int64_t bytes) {
  // A transient fabric fault (loss window, short partition) should not
  // abort a reshape outright, so retry a couple of times — but only while
  // both endpoints are still up: a dead endpoint cannot recover here.
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (rt.cluster().machine(src).failed() || rt.cluster().machine(dst).failed()) {
      co_return false;
    }
    auto transfer = rt.fabric().Transfer(src, dst, bytes);
    if (co_await std::move(transfer)) {
      co_return true;
    }
  }
  co_return false;
}

}  // namespace quicksand::internal

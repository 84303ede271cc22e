// ShardIndexProclet and ShardRouter: the general sharding library (§3.2).
//
// A sharded data structure partitions its elements into disjoint key ranges,
// each stored in a separate memory proclet (a "shard"). An *index memory
// proclet* maintains the map from ranges to shard proclets, so clients can
// address elements without knowing which machine currently stores them.
// Clients cache the index (ShardRouter) and refresh lazily: a request that
// reaches the wrong shard after a split/merge gets kOutOfRange back, and the
// router re-pulls the index snapshot.

#ifndef QUICKSAND_SHARDING_SHARD_INDEX_H_
#define QUICKSAND_SHARDING_SHARD_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "quicksand/common/status.h"
#include "quicksand/runtime/runtime.h"

namespace quicksand {

// One shard's entry in the index. `begin`/`end` bound the keys it owns
// ([begin, end), over the uint64 sharding-key space); count/bytes are
// maintained by split/merge and are advisory for routing and scheduling.
struct ShardInfo {
  ProcletId proclet = kInvalidProcletId;
  uint64_t begin = 0;
  uint64_t end = 0;
  int64_t count = 0;
  int64_t bytes = 0;
};

class ShardIndexProclet : public ProcletBase {
 public:
  static constexpr ProcletKind kKind = ProcletKind::kMemory;

  explicit ShardIndexProclet(const ProcletInit& init) : ProcletBase(init) {}

  uint64_t version() const { return version_; }
  size_t shard_count() const { return shards_.size(); }

  // Full snapshot plus its version, for client caches.
  std::pair<uint64_t, std::vector<ShardInfo>> Snapshot() const {
    std::vector<ShardInfo> out;
    out.reserve(shards_.size());
    for (const auto& [begin, info] : shards_) {
      out.push_back(info);
    }
    return {version_, out};
  }

  Result<ShardInfo> LookupKey(uint64_t key) const {
    auto it = shards_.upper_bound(key);
    if (it == shards_.begin()) {
      return Status::NotFound("key below all shards");
    }
    --it;
    if (key >= it->second.end) {
      return Status::NotFound("key in a gap between shards");
    }
    return it->second;
  }

  // True when the index maps exactly [info.begin, info.end) to
  // info.proclet. A reshape planned from a snapshot checks its shards with
  // this before editing, so a stale plan fails whole instead of leaving a
  // hole or an overlap.
  bool Holds(const ShardInfo& info) const {
    auto it = shards_.find(info.begin);
    return it != shards_.end() && it->second.proclet == info.proclet &&
           it->second.end == info.end;
  }

  Status AddShard(const ShardInfo& info) {
    if (info.begin >= info.end) {
      return Status::InvalidArgument("empty shard range");
    }
    // Reject overlap with an existing shard.
    auto next = shards_.lower_bound(info.begin);
    if (next != shards_.end() && next->second.begin < info.end) {
      return Status::FailedPrecondition("range overlaps an existing shard");
    }
    if (next != shards_.begin()) {
      auto prev = std::prev(next);
      if (prev->second.end > info.begin) {
        return Status::FailedPrecondition("range overlaps an existing shard");
      }
    }
    shards_.emplace(info.begin, info);
    ++version_;
    RecordMutation(
        [info](ProcletBase& b) {
          return static_cast<ShardIndexProclet&>(b).AddShard(info);
        },
        kEntryRecordBytes);
    return Status::Ok();
  }

  Status RemoveShard(ProcletId proclet) {
    for (auto it = shards_.begin(); it != shards_.end(); ++it) {
      if (it->second.proclet == proclet) {
        shards_.erase(it);
        ++version_;
        RecordMutation(
            [proclet](ProcletBase& b) {
              return static_cast<ShardIndexProclet&>(b).RemoveShard(proclet);
            },
            kEntryRecordBytes);
        return Status::Ok();
      }
    }
    return Status::NotFound("no shard with that proclet id");
  }

  // Replaces the entry whose range contains info.begin (used when a split
  // shrinks a shard or stats change).
  Status UpdateShard(const ShardInfo& info) {
    auto it = shards_.upper_bound(info.begin);
    if (it == shards_.begin()) {
      return Status::NotFound("no shard covers that key");
    }
    --it;
    if (it->second.proclet != info.proclet) {
      return Status::FailedPrecondition("shard at that key has a different proclet");
    }
    shards_.erase(it);
    shards_.emplace(info.begin, info);
    ++version_;
    RecordMutation(
        [info](ProcletBase& b) {
          return static_cast<ShardIndexProclet&>(b).UpdateShard(info);
        },
        kEntryRecordBytes);
    return Status::Ok();
  }

  // --- Durability -----------------------------------------------------------

  std::optional<StateImage> CaptureState() const override {
    IndexImage image{shards_, version_, heap_bytes()};
    const int64_t bytes =
        heap_bytes() +
        static_cast<int64_t>(shards_.size()) * kEntryRecordBytes;
    return StateImage{std::any(std::move(image)), bytes};
  }

  Status RestoreState(const StateImage& image) override {
    const IndexImage* img = std::any_cast<IndexImage>(&image.data);
    if (img == nullptr) {
      return Status::InvalidArgument("image is not a ShardIndexProclet image");
    }
    if (!TryChargeHeap(img->heap_bytes)) {
      return Status::ResourceExhausted("restore target is out of memory");
    }
    shards_ = img->shards;
    version_ = img->version + 1;  // force router cache refreshes after restore
    return Status::Ok();
  }

 private:
  struct IndexImage {
    std::map<uint64_t, ShardInfo> shards;
    uint64_t version = 1;
    int64_t heap_bytes = 0;
  };

  // Wire size of one logged index entry (ShardInfo's five 8-byte fields).
  static constexpr int64_t kEntryRecordBytes = 40;

  std::map<uint64_t, ShardInfo> shards_;  // begin -> info
  uint64_t version_ = 1;
};

// Client-side cached view of a shard index.
class ShardRouter {
 public:
  ShardRouter() = default;
  explicit ShardRouter(Ref<ShardIndexProclet> index) : index_(index) {}

  Ref<ShardIndexProclet> index() const { return index_; }
  const std::vector<ShardInfo>& cached_shards() const { return cache_; }

  // The cached entry covering `key`, without touching the index (when to
  // refresh is the client's policy: ShardClient::Route).
  Result<ShardInfo> Lookup(uint64_t key) const {
    // The cache is a snapshot of the index's begin-ordered map.
    auto next = std::upper_bound(
        cache_.begin(), cache_.end(), key,
        [](uint64_t k, const ShardInfo& shard) { return k < shard.begin; });
    if (next == cache_.begin() || key >= std::prev(next)->end) {
      return Status::OutOfRange("no cached shard covers key");
    }
    return *std::prev(next);
  }

  // Pulls a fresh snapshot from the index proclet.
  Task<> Refresh(Ctx ctx) {
    auto call = index_.Call(
        ctx, [](ShardIndexProclet& p) -> Task<std::pair<uint64_t, std::vector<ShardInfo>>> {
          co_return p.Snapshot();
        });
    auto snapshot = co_await std::move(call);  // the version rides along unused
    cache_ = std::move(snapshot.second);
  }

  void Invalidate() { cache_.clear(); }

 private:
  Ref<ShardIndexProclet> index_;
  std::vector<ShardInfo> cache_;
};

}  // namespace quicksand

#endif  // QUICKSAND_SHARDING_SHARD_INDEX_H_

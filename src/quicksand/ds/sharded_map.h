// ShardedMap<K, V>: an associative container partitioned into memory
// proclets by a uint64 projection of the key (§3.2).
//
// The projection (default: std::hash, clamped as MapShardProclet::Project
// says) maps keys onto the uint64 sharding space; each shard proclet owns a
// half-open projection range and stores its entries in an ordered map keyed
// by (projection, key). The map starts as a single shard covering the whole
// space; the adaptive controller (§3.3) splits shards whose heap exceeds the
// configured maximum at their median projection, and merges adjacent
// undersized shards — the hash-table shrink scenario the paper describes.
//
// Routing, retries and split/merge go through the shared ShardClient
// (sharding/shard_client.h). ShardedSet<K> is the value-less specialization
// at the bottom of this file.

#ifndef QUICKSAND_DS_SHARDED_MAP_H_
#define QUICKSAND_DS_SHARDED_MAP_H_

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "quicksand/common/bytes.h"
#include "quicksand/common/status.h"
#include "quicksand/common/wire.h"
#include "quicksand/runtime/runtime.h"
#include "quicksand/sharding/shard_client.h"

namespace quicksand {

template <typename K>
struct DefaultShardProjection {
  uint64_t operator()(const K& key) const { return std::hash<K>{}(key); }
};

template <typename K, typename V, typename Proj = DefaultShardProjection<K>>
class MapShardProclet : public ProcletBase {
 public:
  static constexpr ProcletKind kKind = ProcletKind::kMemory;

  MapShardProclet(const ProcletInit& init, uint64_t begin, uint64_t end)
      : ProcletBase(init), begin_(begin), end_(end) {}
  // Restore/backup factory form; RestoreState (or AdoptPayload) supplies the
  // range and contents (an empty [0, 0) range owns nothing until then).
  explicit MapShardProclet(const ProcletInit& init)
      : MapShardProclet(init, 0, 0) {}

  // A key's place in the sharding space, clamped below UINT64_MAX so the
  // half-open range [0, UINT64_MAX) covers every key (std::hash<int>(-1) is
  // UINT64_MAX itself).
  static uint64_t Project(const K& key) {
    const uint64_t proj = Proj{}(key);
    return proj == UINT64_MAX ? UINT64_MAX - 1 : proj;
  }

  uint64_t range_begin() const { return begin_; }
  uint64_t range_end() const { return end_; }
  int64_t count() const { return static_cast<int64_t>(entries_.size()); }
  int64_t data_bytes() const { return data_bytes_; }

  Status Put(K key, V value) {
    const uint64_t proj = Project(key);
    if (!Owns(proj)) {
      return Status::OutOfRange("key projects outside this shard");
    }
    const int64_t bytes = WireSizeOf(key) + WireSizeOf(value);
    auto it = entries_.find(EntryKey{proj, key});
    const int64_t old_bytes = it == entries_.end() ? 0 : it->second.bytes;
    const int64_t delta = bytes - old_bytes;
    if (delta > 0 && !TryChargeHeap(delta)) {
      return Status::ResourceExhausted("host machine out of memory");
    }
    if (delta < 0) {
      ReleaseHeap(-delta);
    }
    data_bytes_ += delta;
    if (replicated()) {
      // Replay calls Put on the backup; the backup has no sink attached, so
      // the log does not recurse.
      RecordMutation(
          [key, value](ProcletBase& b) {
            return static_cast<MapShardProclet&>(b).Put(key, value);
          },
          bytes);
    } else {
      MarkDirty(bytes);
    }
    entries_[EntryKey{proj, std::move(key)}] = Entry{std::move(value), bytes};
    return Status::Ok();
  }

  Result<V> Get(const K& key) const {
    const uint64_t proj = Project(key);
    if (!Owns(proj)) {
      return Status::OutOfRange("key projects outside this shard");
    }
    auto it = entries_.find(EntryKey{proj, key});
    if (it == entries_.end()) {
      return Status::NotFound("no such key");
    }
    return it->second.value;
  }

  // kNotFound if absent; kOutOfRange if wrongly routed.
  Status Erase(const K& key) {
    const uint64_t proj = Project(key);
    if (!Owns(proj)) {
      return Status::OutOfRange("key projects outside this shard");
    }
    auto it = entries_.find(EntryKey{proj, key});
    if (it == entries_.end()) {
      return Status::NotFound("no such key");
    }
    ReleaseHeap(it->second.bytes);
    data_bytes_ -= it->second.bytes;
    entries_.erase(it);
    if (replicated()) {
      RecordMutation(
          [key](ProcletBase& b) {
            // Idempotent: a duplicate delivery finds the key already gone.
            Status erased = static_cast<MapShardProclet&>(b).Erase(key);
            return erased.code() == StatusCode::kNotFound ? Status::Ok()
                                                          : erased;
          },
          WireSizeOf(key));
    } else {
      MarkDirty(WireSizeOf(key));
    }
    return Status::Ok();
  }

  bool Contains(const K& key) const {
    const uint64_t proj = Project(key);
    return Owns(proj) && entries_.count(EntryKey{proj, key}) > 0;
  }

  // Copies out all entries (per-shard scan unit for iteration).
  std::vector<std::pair<K, V>> Items() const {
    std::vector<std::pair<K, V>> out;
    out.reserve(entries_.size());
    for (const auto& [ekey, entry] : entries_) {
      out.emplace_back(ekey.key, entry.value);
    }
    return out;
  }

  // --- Split/merge hooks (gate must be closed; see sharding/reshape.h) -----

  // Entries projecting to [range_begin, range_end), in transit.
  struct SplitPayload {
    uint64_t range_begin;
    uint64_t range_end;
    std::vector<std::tuple<K, V, int64_t>> entries;  // key, value, bytes
    int64_t total_bytes;
  };

  // The median projection, or the first one above range_begin after it (a
  // cut at range_begin would move everything). Fails if all entries share
  // one projection (nothing to split on).
  Result<uint64_t> MedianSplitPoint() const {
    if (entries_.size() < 2) {
      return Status::FailedPrecondition("too few entries to split");
    }
    auto mid = entries_.begin();
    std::advance(mid, static_cast<ptrdiff_t>(entries_.size() / 2));
    while (mid != entries_.end() && mid->first.proj == begin_) {
      ++mid;
    }
    if (mid == entries_.end()) {
      return Status::FailedPrecondition("all entries share one projection");
    }
    return mid->first.proj;
  }

  // Moves the entries projecting to [split_point, range_end) into the
  // payload; this shard shrinks to [range_begin, split_point).
  SplitPayload ExtractUpperRange(uint64_t split_point) {
    QS_CHECK_MSG(gate_closed(), "ExtractUpperRange requires a closed gate");
    SplitPayload payload{split_point, end_, {}, 0};
    auto first_moved =
        std::partition_point(entries_.begin(), entries_.end(), [&](const auto& e) {
          return e.first.proj < split_point;
        });
    for (auto it = first_moved; it != entries_.end(); ++it) {
      payload.total_bytes += it->second.bytes;
      payload.entries.emplace_back(it->first.key, std::move(it->second.value),
                                   it->second.bytes);
    }
    entries_.erase(first_moved, entries_.end());
    ReleaseHeap(payload.total_bytes);
    data_bytes_ -= payload.total_bytes;
    end_ = split_point;
    return payload;
  }

  // Empties the shard (merge donor). Its range collapses to empty, so until
  // it is destroyed (or restored by a rollback AdoptPayload) it answers every
  // request with kOutOfRange and clients with stale routes refresh instead
  // of trusting a false NotFound.
  SplitPayload ExtractAll() { return ExtractUpperRange(begin_); }

  // Installs a payload into this shard, which takes over exactly its range.
  // On failure the payload is left untouched so the caller can roll it back
  // into the donor.
  Status AdoptPayload(SplitPayload&& payload) {
    QS_CHECK_MSG(gate_closed(), "AdoptPayload requires a closed gate");
    if (!TryChargeHeap(payload.total_bytes)) {
      return Status::ResourceExhausted("host machine out of memory");
    }
    begin_ = payload.range_begin;
    end_ = payload.range_end;
    Install(std::move(payload));
    return Status::Ok();
  }

  // Absorbs the right neighbor's payload and takes over its range. On
  // failure the payload is left untouched.
  Status AbsorbRightNeighbor(SplitPayload&& payload) {
    QS_CHECK_MSG(gate_closed(), "AbsorbRightNeighbor requires a closed gate");
    QS_CHECK(payload.range_begin == end_);
    if (!TryChargeHeap(payload.total_bytes)) {
      return Status::ResourceExhausted("host machine out of memory");
    }
    end_ = payload.range_end;
    Install(std::move(payload));
    return Status::Ok();
  }

  // --- Durability -----------------------------------------------------------

  std::optional<StateImage> CaptureState() const override {
    MapImage image{begin_, end_, data_bytes_, entries_, heap_bytes()};
    return StateImage{std::any(std::move(image)), heap_bytes()};
  }

  Status RestoreState(const StateImage& image) override {
    const MapImage* img = std::any_cast<MapImage>(&image.data);
    if (img == nullptr) {
      return Status::InvalidArgument("image is not a MapShardProclet image");
    }
    if (!TryChargeHeap(img->heap_bytes)) {
      return Status::ResourceExhausted("restore target is out of memory");
    }
    begin_ = img->begin;
    end_ = img->end;
    data_bytes_ = img->data_bytes;
    entries_ = img->entries;
    return Status::Ok();
  }

 private:
  struct EntryKey {
    uint64_t proj;
    K key;
    bool operator<(const EntryKey& other) const {
      if (proj != other.proj) {
        return proj < other.proj;
      }
      return key < other.key;
    }
  };

  struct Entry {
    V value;
    int64_t bytes = 0;
  };

  struct MapImage {
    uint64_t begin;
    uint64_t end;
    int64_t data_bytes;
    std::map<EntryKey, Entry> entries;
    int64_t heap_bytes;
  };

  bool Owns(uint64_t proj) const { return proj >= begin_ && proj < end_; }

  void Install(SplitPayload&& payload) {
    data_bytes_ += payload.total_bytes;
    for (auto& [key, value, bytes] : payload.entries) {
      const uint64_t proj = Project(key);
      entries_[EntryKey{proj, std::move(key)}] = Entry{std::move(value), bytes};
    }
  }

  uint64_t begin_;
  uint64_t end_;
  int64_t data_bytes_ = 0;
  std::map<EntryKey, Entry> entries_;
};

template <typename K, typename V, typename Proj = DefaultShardProjection<K>>
class ShardedMap {
 public:
  using Shard = MapShardProclet<K, V, Proj>;
  using Options = ShardedOptions;

  ShardedMap() = default;

  static Task<Result<ShardedMap>> Create(Ctx ctx, Options options = Options{}) {
    auto open = ShardClient::Create(ctx, options);
    Result<ShardClient> client = co_await std::move(open);
    if (!client.ok()) {
      co_return client.status();
    }
    ShardedMap map;
    map.client_ = std::move(*client);

    PlacementRequest shard_req;
    shard_req.heap_bytes = options.shard_base_bytes;
    auto create_shard =
        ctx.rt->Create<Shard>(ctx, shard_req, uint64_t{0}, UINT64_MAX);
    Result<Ref<Shard>> shard = co_await std::move(create_shard);
    if (!shard.ok()) {
      co_return shard.status();
    }
    const ShardInfo info{shard->id(), 0, UINT64_MAX, 0, 0};
    auto add = map.client_.EditIndex(
        ctx, [info](ShardIndexProclet& p) { return p.AddShard(info); });
    Status added = co_await std::move(add);
    if (!added.ok()) {
      co_return added;
    }
    Status protected_index = co_await map.client_.template ProtectNew<ShardIndexProclet>(
        ctx, map.index().id());
    if (!protected_index.ok()) {
      co_return protected_index;
    }
    Status protected_shard =
        co_await map.client_.template ProtectNew<Shard>(ctx, shard->id());
    if (!protected_shard.ok()) {
      co_return protected_shard;
    }
    co_return map;
  }

  Ref<ShardIndexProclet> index() const { return client_.index(); }
  ShardRouter& router() { return client_.router(); }
  const Options& options() const { return client_.options(); }

  Task<Status> Put(Ctx ctx, K key, V value) {
    const uint64_t proj = Shard::Project(key);
    const int64_t request_bytes = WireSizeOf(key) + WireSizeOf(value);
    return client_.template Call<Shard>(
        ctx, proj,
        [key = std::move(key), value = std::move(value)](Shard& s) mutable -> Task<Status> {
          co_return s.Put(std::move(key), std::move(value));
        },
        request_bytes);
  }

  Task<Result<V>> Get(Ctx ctx, K key) {
    const uint64_t proj = Shard::Project(key);
    const int64_t request_bytes = WireSizeOf(key);
    return client_.template Call<Shard>(
        ctx, proj,
        [key = std::move(key)](Shard& s) -> Task<Result<V>> { co_return s.Get(key); },
        request_bytes);
  }

  Task<Status> Erase(Ctx ctx, K key) {
    const uint64_t proj = Shard::Project(key);
    return client_.template Call<Shard>(
        ctx, proj,
        [key = std::move(key)](Shard& s) -> Task<Status> { co_return s.Erase(key); });
  }

  Task<Result<bool>> Contains(Ctx ctx, K key) {
    auto get = Get(ctx, std::move(key));
    Result<V> value = co_await std::move(get);
    if (value.ok()) {
      co_return true;
    }
    if (value.status().code() == StatusCode::kNotFound) {
      co_return false;
    }
    co_return value.status();
  }

  Task<Result<int64_t>> Size(Ctx ctx) {
    auto scan = client_.template Scan<Shard>(
        ctx, [](Shard& s) -> Task<int64_t> { co_return s.count(); });
    Result<std::vector<int64_t>> counts = co_await std::move(scan);
    if (!counts.ok()) {
      co_return counts.status();
    }
    int64_t total = 0;
    for (int64_t c : *counts) {
      total += c;
    }
    co_return total;
  }

  // Copies out every entry, shard by shard (iteration primitive).
  Task<Result<std::vector<std::pair<K, V>>>> Items(Ctx ctx) {
    auto scan = client_.template Scan<Shard>(
        ctx, [](Shard& s) -> Task<std::vector<std::pair<K, V>>> { co_return s.Items(); });
    Result<std::vector<std::vector<std::pair<K, V>>>> shards = co_await std::move(scan);
    if (!shards.ok()) {
      co_return shards.status();
    }
    std::vector<std::pair<K, V>> out;
    for (auto& items : *shards) {
      for (auto& item : items) {
        out.push_back(std::move(item));
      }
    }
    co_return out;
  }

  // Splits `donor` at its median projection onto a best-fit machine and merges
  // adjacent shards, through the reshape engine.
  Task<Status> Split(Ctx ctx, ShardInfo donor) {
    return client_.template Split<Shard>(ctx, donor);
  }
  Task<Status> Merge(Ctx ctx, ShardInfo left, ShardInfo right) {
    return client_.template Merge<Shard>(ctx, left, right);
  }

 private:
  ShardClient client_;
};

// ShardedSet<K>: membership-only wrapper over ShardedMap.
template <typename K, typename Proj = DefaultShardProjection<K>>
class ShardedSet {
 public:
  struct Options {
    int64_t max_shard_bytes = 16 * kMiB;
  };

  ShardedSet() = default;

  static Task<Result<ShardedSet>> Create(Ctx ctx, Options options = Options{}) {
    typename ShardedMap<K, char, Proj>::Options map_options;
    map_options.max_shard_bytes = options.max_shard_bytes;
    auto create = ShardedMap<K, char, Proj>::Create(ctx, map_options);
    Result<ShardedMap<K, char, Proj>> map = co_await std::move(create);
    if (!map.ok()) {
      co_return map.status();
    }
    ShardedSet set;
    set.map_ = *map;
    co_return set;
  }

  Task<Status> Insert(Ctx ctx, K key) { return map_.Put(ctx, std::move(key), 0); }
  Task<Status> Erase(Ctx ctx, K key) { return map_.Erase(ctx, std::move(key)); }
  Task<Result<bool>> Contains(Ctx ctx, K key) {
    return map_.Contains(ctx, std::move(key));
  }
  Task<Result<int64_t>> Size(Ctx ctx) { return map_.Size(ctx); }

  ShardedMap<K, char, Proj>& underlying_map() { return map_; }

 private:
  ShardedMap<K, char, Proj> map_;
};

}  // namespace quicksand

#endif  // QUICKSAND_DS_SHARDED_MAP_H_

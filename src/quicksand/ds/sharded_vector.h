// ShardedVector<T>: an append-ordered vector partitioned into granular
// memory proclets (§3.2, §4).
//
// Elements are keyed by their index. Each shard proclet owns a contiguous
// index range; the tail shard accepts appends until it reaches
// max_shard_bytes, at which point the appender seals it and adds a fresh
// tail — so data decomposes into independently schedulable memory proclets
// as it is loaded (this is how Fig. 2's input images spread across machines
// with free memory). Shards can further split/merge under the adaptive
// controller (§3.3).
//
// The handle is a cheap client-side object; any number of actors may hold
// copies. Routing, retries and split/merge go through the shared ShardClient
// (sharding/shard_client.h); stale routes get kOutOfRange/kFailedPrecondition
// from shards and refresh-retry.

#ifndef QUICKSAND_DS_SHARDED_VECTOR_H_
#define QUICKSAND_DS_SHARDED_VECTOR_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "quicksand/common/status.h"
#include "quicksand/common/wire.h"
#include "quicksand/runtime/runtime.h"
#include "quicksand/sharding/shard_client.h"

namespace quicksand {

template <typename T>
class VectorShardProclet : public ProcletBase {
 public:
  static constexpr ProcletKind kKind = ProcletKind::kMemory;

  struct AppendResult {
    uint64_t index;
    int64_t shard_bytes;
    int64_t shard_count;
  };

  VectorShardProclet(const ProcletInit& init, uint64_t base)
      : ProcletBase(init), base_(base) {}
  // Restore/backup factory form; RestoreState supplies base_ and contents.
  explicit VectorShardProclet(const ProcletInit& init)
      : VectorShardProclet(init, 0) {}

  // The index range this shard holds: [range_begin, range_end).
  uint64_t range_begin() const { return base_; }
  uint64_t range_end() const { return base_ + elements_.size(); }
  int64_t count() const { return static_cast<int64_t>(elements_.size()); }
  int64_t data_bytes() const { return data_bytes_; }
  bool sealed() const { return sealed_; }

  Result<AppendResult> Append(T value) {
    if (sealed_) {
      return Status::FailedPrecondition("shard is sealed");
    }
    const int64_t bytes = WireSizeOf(value);
    if (!TryChargeHeap(bytes)) {
      return Status::ResourceExhausted("host machine out of memory");
    }
    data_bytes_ += bytes;
    element_bytes_.push_back(bytes);
    const uint64_t index = base_ + elements_.size();
    if (replicated()) {
      RecordMutation(
          [index, value, bytes](ProcletBase& b) {
            return static_cast<VectorShardProclet&>(b).ApplyAppend(index, value,
                                                                   bytes);
          },
          bytes);
    } else {
      MarkDirty(bytes);
    }
    elements_.push_back(std::move(value));
    return AppendResult{index, data_bytes_, count()};
  }

  // Idempotent; returns the element count at seal time.
  int64_t Seal() {
    if (!sealed_) {
      sealed_ = true;
      RecordMutation(
          [](ProcletBase& b) {
            static_cast<VectorShardProclet&>(b).sealed_ = true;
            return Status::Ok();
          },
          kControlRecordBytes);
    }
    return count();
  }

  Result<T> Get(uint64_t index) const {
    if (index < base_ || index >= range_end()) {
      return Status::OutOfRange("index not in this shard");
    }
    return elements_[static_cast<size_t>(index - base_)];
  }

  Status Set(uint64_t index, T value) {
    if (index < base_ || index >= range_end()) {
      return Status::OutOfRange("index not in this shard");
    }
    const size_t slot = static_cast<size_t>(index - base_);
    const int64_t new_bytes = WireSizeOf(value);
    const int64_t delta = new_bytes - element_bytes_[slot];
    if (delta > 0 && !TryChargeHeap(delta)) {
      return Status::ResourceExhausted("host machine out of memory");
    }
    if (delta < 0) {
      ReleaseHeap(-delta);
    }
    data_bytes_ += delta;
    element_bytes_[slot] = new_bytes;
    if (replicated()) {
      RecordMutation(
          [index, value, new_bytes](ProcletBase& b) {
            return static_cast<VectorShardProclet&>(b).ApplySet(index, value,
                                                                new_bytes);
          },
          new_bytes);
    } else {
      MarkDirty(new_bytes);
    }
    elements_[slot] = std::move(value);
    return Status::Ok();
  }

  // Copies out up to `count` elements starting at `begin` (clamped to this
  // shard's range). Used by cross-shard reads and the prefetcher.
  Result<std::vector<T>> GetRange(uint64_t begin, uint64_t count) const {
    if (begin < base_ || begin >= range_end()) {
      return Status::OutOfRange("range start not in this shard");
    }
    const size_t first = static_cast<size_t>(begin - base_);
    const size_t n =
        std::min(static_cast<size_t>(count), elements_.size() - first);
    return std::vector<T>(elements_.begin() + static_cast<ptrdiff_t>(first),
                          elements_.begin() + static_cast<ptrdiff_t>(first + n));
  }

  // --- Split/merge hooks (gate must be closed; see sharding/reshape.h) -----

  // Elements [range_begin, range_end) in transit between shards. `sealed`
  // is the donor's seal bit: a payload cut from the growing tail carries the
  // tail role to whichever shard installs it.
  struct SplitPayload {
    uint64_t range_begin;
    uint64_t range_end;
    bool sealed;
    std::vector<T> elements;
    std::vector<int64_t> element_bytes;
    int64_t total_bytes;
  };

  // The element midpoint.
  Result<uint64_t> MedianSplitPoint() const {
    if (count() < 2) {
      return Status::FailedPrecondition("too few elements to split");
    }
    return base_ + elements_.size() / 2;
  }

  // Moves elements [split_point, range_end) into the payload. A split shard
  // no longer grows in place.
  SplitPayload ExtractUpperRange(uint64_t split_point) {
    QS_CHECK_MSG(gate_closed(), "ExtractUpperRange requires a closed gate");
    QS_CHECK(split_point >= base_ && split_point <= range_end());
    const auto keep = static_cast<ptrdiff_t>(split_point - base_);
    SplitPayload payload{split_point, range_end(), sealed_, {}, {}, 0};
    payload.elements.assign(std::make_move_iterator(elements_.begin() + keep),
                            std::make_move_iterator(elements_.end()));
    payload.element_bytes.assign(element_bytes_.begin() + keep, element_bytes_.end());
    elements_.resize(static_cast<size_t>(keep));
    element_bytes_.resize(static_cast<size_t>(keep));
    for (int64_t b : payload.element_bytes) {
      payload.total_bytes += b;
    }
    data_bytes_ -= payload.total_bytes;
    ReleaseHeap(payload.total_bytes);
    sealed_ = true;
    return payload;
  }

  SplitPayload ExtractAll() { return ExtractUpperRange(base_); }

  // Installs a payload into this empty shard, which takes over its range and
  // seal bit. On failure the payload is left untouched so the caller can
  // roll it back into the donor — losing it would lose data.
  Status AdoptPayload(SplitPayload&& payload) {
    QS_CHECK_MSG(gate_closed(), "AdoptPayload requires a closed gate");
    QS_CHECK(elements_.empty());
    if (!TryChargeHeap(payload.total_bytes)) {
      return Status::ResourceExhausted("host machine out of memory");
    }
    base_ = payload.range_begin;
    sealed_ = payload.sealed;
    data_bytes_ = payload.total_bytes;
    elements_ = std::move(payload.elements);
    element_bytes_ = std::move(payload.element_bytes);
    return Status::Ok();
  }

  // Appends a right-neighbor's elements (for a merge, or a split rollback)
  // and takes its seal bit. On failure the payload is left untouched.
  Status AbsorbRightNeighbor(SplitPayload&& payload) {
    QS_CHECK_MSG(gate_closed(), "AbsorbRightNeighbor requires a closed gate");
    QS_CHECK(payload.range_begin == range_end());
    if (!TryChargeHeap(payload.total_bytes)) {
      return Status::ResourceExhausted("host machine out of memory");
    }
    data_bytes_ += payload.total_bytes;
    sealed_ = payload.sealed;
    for (auto& e : payload.elements) {
      elements_.push_back(std::move(e));
    }
    element_bytes_.insert(element_bytes_.end(), payload.element_bytes.begin(),
                          payload.element_bytes.end());
    return Status::Ok();
  }

  // --- Durability -----------------------------------------------------------

  std::optional<StateImage> CaptureState() const override {
    VectorImage image{base_, sealed_, data_bytes_, elements_, element_bytes_,
                      heap_bytes()};
    return StateImage{std::any(std::move(image)), heap_bytes()};
  }

  Status RestoreState(const StateImage& image) override {
    const VectorImage* img = std::any_cast<VectorImage>(&image.data);
    if (img == nullptr) {
      return Status::InvalidArgument("image is not a VectorShardProclet image");
    }
    if (!TryChargeHeap(img->heap_bytes)) {
      return Status::ResourceExhausted("restore target is out of memory");
    }
    base_ = img->base;
    sealed_ = img->sealed;
    data_bytes_ = img->data_bytes;
    elements_ = img->elements;
    element_bytes_ = img->element_bytes;
    return Status::Ok();
  }

 private:
  struct VectorImage {
    uint64_t base;
    bool sealed;
    int64_t data_bytes;
    std::vector<T> elements;
    std::vector<int64_t> element_bytes;
    int64_t heap_bytes;
  };

  // Wire size of a logged control record (seal).
  static constexpr int64_t kControlRecordBytes = 16;

  // Mutation-log replay targets (run on the backup object; see
  // ProcletBase::RecordMutation). Tolerant of duplicate delivery.
  Status ApplyAppend(uint64_t index, const T& value, int64_t bytes) {
    if (index < base_) {
      return Status::Internal("append replay below shard base");
    }
    const size_t slot = static_cast<size_t>(index - base_);
    if (slot < elements_.size()) {
      return ApplySet(index, value, bytes);  // duplicate delivery
    }
    if (slot != elements_.size()) {
      return Status::Internal("append replay would leave a gap");
    }
    if (!TryChargeHeap(bytes)) {
      return Status::ResourceExhausted("backup machine out of memory");
    }
    data_bytes_ += bytes;
    element_bytes_.push_back(bytes);
    elements_.push_back(value);
    return Status::Ok();
  }

  Status ApplySet(uint64_t index, const T& value, int64_t bytes) {
    if (index < base_ ||
        index - base_ >= static_cast<uint64_t>(elements_.size())) {
      return Status::Internal("set replay outside shard range");
    }
    const size_t slot = static_cast<size_t>(index - base_);
    const int64_t delta = bytes - element_bytes_[slot];
    if (delta > 0 && !TryChargeHeap(delta)) {
      return Status::ResourceExhausted("backup machine out of memory");
    }
    if (delta < 0) {
      ReleaseHeap(-delta);
    }
    data_bytes_ += delta;
    element_bytes_[slot] = bytes;
    elements_[slot] = value;
    return Status::Ok();
  }

  uint64_t base_;
  bool sealed_ = false;
  int64_t data_bytes_ = 0;
  std::vector<T> elements_;
  std::vector<int64_t> element_bytes_;
};

template <typename T>
class ShardedVector {
 public:
  using Shard = VectorShardProclet<T>;
  using Options = ShardedOptions;

  ShardedVector() = default;

  static Task<Result<ShardedVector>> Create(Ctx ctx, Options options = Options{}) {
    auto open = ShardClient::Create(ctx, options);
    Result<ShardClient> client = co_await std::move(open);
    if (!client.ok()) {
      co_return client.status();
    }
    ShardedVector vec;
    vec.client_ = std::move(*client);
    Status protected_index =
        co_await vec.client_.template ProtectNew<ShardIndexProclet>(ctx, vec.index().id());
    if (!protected_index.ok()) {
      co_return protected_index;
    }
    // First tail shard covering [0, inf).
    Status grown = co_await vec.AddTail(ctx, 0);
    if (!grown.ok()) {
      co_return grown;
    }
    co_return vec;
  }

  Ref<ShardIndexProclet> index() const { return client_.index(); }
  ShardRouter& router() { return client_.router(); }
  const Options& options() const { return client_.options(); }

  // Appends an element; returns its index.
  Task<Result<uint64_t>> PushBack(Ctx ctx, T value) {
    using AppendResult = typename Shard::AppendResult;
    const int64_t request_bytes = WireSizeOf(value);
    for (int attempt = 0; attempt < ShardClient::kMaxAttempts; ++attempt) {
      ShardInfo tail;
      auto call = client_.template Call<Shard>(
          ctx, kTailKey,
          [&value](Shard& s) -> Task<Result<AppendResult>> { co_return s.Append(value); },
          request_bytes, /*past_end_is_answer=*/false, &tail);
      const Result<AppendResult> appended = co_await std::move(call);
      if (appended.status().code() == StatusCode::kFailedPrecondition) {
        // Tail sealed under us: someone is growing; refresh and retry.
        (void)co_await client_.Refresh(ctx);
        continue;
      }
      if (appended.status().code() == StatusCode::kOutOfRange) {
        // Between a concurrent grower's seal and its new-tail insertion the
        // index briefly has no tail; wait out that window.
        co_await ctx.rt->sim().Sleep(Duration::Micros(20));
        continue;
      }
      if (!appended.ok()) {
        co_return appended.status();
      }
      if (appended->shard_bytes >= options().max_shard_bytes) {
        Status grown = co_await GrowTail(ctx, tail);
        if (!grown.ok() && grown.code() != StatusCode::kFailedPrecondition) {
          co_return grown;
        }
      }
      co_return appended->index;
    }
    co_return Status::Aborted("too many append retries");
  }

  Task<Result<T>> Get(Ctx ctx, uint64_t index) {
    return client_.template Call<Shard>(
        ctx, index, [index](Shard& s) -> Task<Result<T>> { co_return s.Get(index); },
        0, /*past_end_is_answer=*/true);
  }

  Task<Status> Set(Ctx ctx, uint64_t index, T value) {
    const int64_t request_bytes = WireSizeOf(value);
    return client_.template Call<Shard>(
        ctx, index,
        [index, value = std::move(value)](Shard& s) mutable -> Task<Status> {
          co_return s.Set(index, std::move(value));
        },
        request_bytes, /*past_end_is_answer=*/true);
  }

  // Batched cross-shard read of [begin, begin+count) (clamped at the end of
  // the vector). The unit of remote transfer is a whole per-shard range — the
  // batching that makes remote iteration cheap.
  Task<Result<std::vector<T>>> GetRange(Ctx ctx, uint64_t begin, uint64_t count) {
    std::vector<T> out;
    uint64_t cursor = begin;
    while (count > 0) {
      auto call = client_.template Call<Shard>(
          ctx, cursor,
          [cursor, count](Shard& s) -> Task<Result<std::vector<T>>> {
            co_return s.GetRange(cursor, count);
          },
          0, /*past_end_is_answer=*/true);
      Result<std::vector<T>> chunk = co_await std::move(call);
      if (chunk.status().code() == StatusCode::kOutOfRange) {
        break;  // reading past the live end of the vector
      }
      if (!chunk.ok()) {
        co_return chunk.status();
      }
      if (chunk->empty()) {
        break;  // tail shard has no elements at cursor yet
      }
      cursor += chunk->size();
      count -= static_cast<uint64_t>(chunk->size());
      for (auto& e : *chunk) {
        out.push_back(std::move(e));
      }
    }
    co_return out;
  }

  // Total element count (one index round trip, then the tail's live end:
  // the index's counts are advisory).
  Task<Result<uint64_t>> Size(Ctx ctx) {
    Status refreshed = co_await client_.Refresh(ctx);
    if (!refreshed.ok()) {
      co_return refreshed;
    }
    auto call = client_.template Call<Shard>(
        ctx, kTailKey, [](Shard& s) -> Task<uint64_t> { co_return s.range_end(); });
    Result<uint64_t> end = co_await std::move(call);
    if (end.status().code() != StatusCode::kOutOfRange) {
      co_return end;
    }
    // No tail between a grower's seal and its new tail: the sealed shards
    // bound the vector.
    uint64_t total = 0;
    for (const ShardInfo& shard : router().cached_shards()) {
      total = std::max(total, shard.end);
    }
    co_return total;
  }

  // Splits `donor` at its element midpoint onto a best-fit machine and merges
  // adjacent shards, through the reshape engine.
  Task<Status> Split(Ctx ctx, ShardInfo donor) {
    return client_.template Split<Shard>(ctx, donor);
  }
  Task<Status> Merge(Ctx ctx, ShardInfo left, ShardInfo right) {
    return client_.template Merge<Shard>(ctx, left, right);
  }

 private:
  // Routes to the tail: the shard whose range extends to UINT64_MAX.
  static constexpr uint64_t kTailKey = UINT64_MAX - 1;

  // Seals `tail` and installs a fresh tail after it. Concurrent growers are
  // resolved by the index: losers see FailedPrecondition (the "retry the
  // append" signal to PushBack) and retry.
  Task<Status> GrowTail(Ctx ctx, ShardInfo tail) {
    auto seal = client_.template CallOnce<Shard>(
        ctx, tail, [](Shard& s) -> Task<int64_t> { co_return s.Seal(); });
    const std::optional<Result<int64_t>> sealed = co_await std::move(seal);
    if (!sealed.has_value()) {
      co_return Status::FailedPrecondition("tail moved during grow; retry");
    }
    if (!sealed->ok()) {
      co_return sealed->status();  // lost with its machine
    }
    const uint64_t boundary = tail.begin + static_cast<uint64_t>(**sealed);

    // Shrink the sealed tail's range in the index.
    ShardInfo sealed_info = tail;
    sealed_info.end = boundary;
    sealed_info.count = **sealed;
    auto update = client_.EditIndex(ctx, [tail, sealed_info](ShardIndexProclet& p) {
      return p.Holds(tail) ? p.UpdateShard(sealed_info)
                           : Status::FailedPrecondition("tail's index entry changed");
    });
    const Status updated = co_await std::move(update);
    if (updated.code() == StatusCode::kDataLoss) {
      co_return updated;
    }
    if (!updated.ok()) {
      if (updated.code() != StatusCode::kUnavailable) {
        (void)co_await client_.Refresh(ctx);  // another appender grew the tail
      }
      co_return Status::FailedPrecondition("tail already grown");
    }
    Status added = co_await AddTail(ctx, boundary);
    (void)co_await client_.Refresh(ctx);
    co_return added;
  }

  Task<Status> AddTail(Ctx ctx, uint64_t base) {
    PlacementRequest req;
    req.heap_bytes = options().shard_base_bytes;
    auto create = ctx.rt->Create<Shard>(ctx, req, base);
    Result<Ref<Shard>> shard = co_await std::move(create);
    if (!shard.ok()) {
      co_return shard.status();
    }
    const ShardInfo info{shard->id(), base, UINT64_MAX, 0, 0};
    auto add = client_.EditIndex(
        ctx, [info](ShardIndexProclet& p) { return p.AddShard(info); });
    const Status added = co_await std::move(add);
    if (!added.ok()) {
      // Lost a race (or the index restarted under us): drop the orphan shard.
      auto destroy = ctx.rt->Destroy(ctx, shard->id());
      (void)co_await std::move(destroy);
      co_return added.code() == StatusCode::kDataLoss
          ? added
          : Status::FailedPrecondition("another tail was added first");
    }
    co_return co_await client_.template ProtectNew<Shard>(ctx, shard->id());
  }

  ShardClient client_;
};

}  // namespace quicksand

#endif  // QUICKSAND_DS_SHARDED_VECTOR_H_

// FramePool: a size-class freelist for coroutine frames.
//
// Every Task<T> body, root wrapper, and coroutine-returning primitive
// (Mutex::Lock, Fiber::Join) allocates its frame through the
// promise's operator new. With a million fibers in flight (bench/scale_sim)
// that is millions of malloc/free pairs of a handful of distinct sizes, and
// the frames end up scattered across the heap — the event loop's dominant
// cache-miss source. The pool carves frames from large blocks and recycles
// them through per-size-class freelists: allocation is a pointer pop, frames
// of the same coroutine type are packed adjacently (spawn order ~ resume
// order, so the prefetcher gets sequential lines), and nothing is returned
// to the system until process exit.
//
// Single-threaded by design, like the simulator itself. Reuse is LIFO and
// addresses never feed into event ordering, so determinism is unaffected.
//
// Under AddressSanitizer the pool degrades to plain new/delete: recycling
// frames would blind ASan to coroutine use-after-free, and the sanitizer CI
// lane exists precisely to catch those.

#ifndef QUICKSAND_SIM_FRAME_POOL_H_
#define QUICKSAND_SIM_FRAME_POOL_H_

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define QS_FRAME_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define QS_FRAME_POOL_PASSTHROUGH 1
#endif
#endif

namespace quicksand {

class FramePool {
 public:
#ifdef QS_FRAME_POOL_PASSTHROUGH
  static void* Alloc(size_t bytes) { return ::operator new(bytes); }
  static void Free(void* p, size_t /*bytes*/) { ::operator delete(p); }
#else
  static void* Alloc(size_t bytes) {
    const size_t cls = ClassOf(bytes);
    if (cls >= kClasses) {
      return ::operator new(bytes);
    }
    State& state = GetState();
    void*& head = state.freelists[cls];
    if (head != nullptr) {
      void* p = head;
      head = *static_cast<void**>(p);
      return p;
    }
    const size_t want = (cls + 1) * kGranularity;
    if (state.block_left < want) {
      state.blocks.push_back(std::make_unique<unsigned char[]>(kBlockBytes));
      state.block_cursor = state.blocks.back().get();
      state.block_left = kBlockBytes;
    }
    void* p = state.block_cursor;
    state.block_cursor += want;
    state.block_left -= want;
    return p;
  }

  static void Free(void* p, size_t bytes) {
    const size_t cls = ClassOf(bytes);
    if (cls >= kClasses) {
      ::operator delete(p);
      return;
    }
    State& state = GetState();
    *static_cast<void**>(p) = state.freelists[cls];
    state.freelists[cls] = p;
  }

 private:
  // 64-byte classes up to 2 KiB cover every coroutine frame in the tree
  // (typical Task<> frames are 100-400 bytes); larger frames fall through
  // to the system allocator.
  static constexpr size_t kGranularity = 64;
  static constexpr size_t kClasses = 32;
  static constexpr size_t kBlockBytes = 256 * 1024;

  static size_t ClassOf(size_t bytes) {
    return bytes == 0 ? 0 : (bytes - 1) / kGranularity;
  }

  struct State {
    void* freelists[kClasses] = {};
    std::vector<std::unique_ptr<unsigned char[]>> blocks;
    unsigned char* block_cursor = nullptr;
    size_t block_left = 0;
  };

  static State& GetState() {
    static State state;
    return state;
  }
#endif  // QS_FRAME_POOL_PASSTHROUGH
};

}  // namespace quicksand

#endif  // QUICKSAND_SIM_FRAME_POOL_H_

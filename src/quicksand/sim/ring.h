// Ring: a FIFO queue on a power-of-two circular buffer.
//
// The simulator's FIFO lanes (the now lane and the tick lanes) push at the
// tail and pop at the head millions of times per run; a ring keeps that to
// one masked index and no per-entry allocation, where std::deque allocates
// and frees blocks as the window slides.

#ifndef QUICKSAND_SIM_RING_H_
#define QUICKSAND_SIM_RING_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "quicksand/common/check.h"

namespace quicksand {

template <typename T>
class Ring {
 public:
  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }

  T& front() {
    QS_DCHECK(count_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    QS_DCHECK(count_ > 0);
    return slots_[head_];
  }

  void push(T value) {
    if (count_ == slots_.size()) {
      Grow();
    }
    slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(value);
    ++count_;
  }

  T pop() {
    QS_DCHECK(count_ > 0);
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
    return value;
  }

 private:
  void Grow() {
    const size_t old_cap = slots_.size();
    std::vector<T> grown(old_cap == 0 ? 64 : old_cap * 2);
    for (size_t i = 0; i < count_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & (old_cap - 1)]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t count_ = 0;
};

}  // namespace quicksand

#endif  // QUICKSAND_SIM_RING_H_

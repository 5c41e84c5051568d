#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace softres::sim {

/// Grow-only FIFO ring over a power-of-two slot array: the queue behind pool
/// waiters and the disk's request queue. A std::deque allocates and frees a
/// node every 512 bytes of traffic that passes through it, so even a queue a
/// few entries deep churns the allocator at the paper's operating points;
/// this ring allocates only when it outgrows its high-water mark and never
/// shrinks, so a queue in steady state never touches the allocator.
///
/// Slots hold a default-constructed T while vacant (T must be default
/// constructible and move assignable): popping or erasing move-assigns a
/// fresh T into the freed slot, so whatever the entry held is released at
/// once rather than when the slot is reused.
template <class T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  T& front() {
    assert(size_ > 0);
    return slots_[head_];
  }
  /// The i-th entry from the front.
  T& operator[](std::size_t i) {
    assert(i < size_);
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    slots_[head_] = T();
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  /// Remove the i-th entry; the rest keep their order. Shifts whichever side
  /// of `i` is shorter, as std::deque::erase does.
  void erase(std::size_t i) {
    assert(i < size_);
    if (i < size_ / 2) {
      for (std::size_t j = i; j > 0; --j) (*this)[j] = std::move((*this)[j - 1]);
      pop_front();
    } else {
      for (std::size_t j = i; j + 1 < size_; ++j) {
        (*this)[j] = std::move((*this)[j + 1]);
      }
      (*this)[size_ - 1] = T();
      --size_;
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  void grow() {
    std::vector<T> bigger(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace softres::sim

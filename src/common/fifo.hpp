// Vector-backed FIFO for the timing plane's request and job queues.
//
// std::deque allocates a map and a first block as soon as it is
// constructed, and libstdc++'s deque move constructor is not noexcept,
// so a std::vector of deque-holding structs (ResourceServer ports)
// COPIES every queue when it regrows. Fifo holds a std::vector plus a
// head index: construction allocates nothing, moves are noexcept, and a
// queue that drains to empty keeps its capacity for the next burst.
// Popped slots stay behind the head (moved-from) until the queue drains
// or a full buffer is compacted, so memory stays within about twice the
// live high-water mark.
#ifndef EDGEMM_COMMON_FIFO_HPP
#define EDGEMM_COMMON_FIFO_HPP

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace edgemm {

template <typename T>
class Fifo {
 public:
  using iterator = typename std::vector<T>::iterator;

  Fifo() noexcept = default;
  Fifo(Fifo&& other) noexcept
      : items_(std::move(other.items_)), head_(std::exchange(other.head_, 0)) {}
  Fifo& operator=(Fifo&& other) noexcept {
    Fifo moved(std::move(other));
    swap(moved);
    return *this;
  }

  bool empty() const noexcept { return head_ == items_.size(); }
  std::size_t size() const noexcept { return items_.size() - head_; }

  iterator begin() noexcept {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  iterator end() noexcept { return items_.end(); }

  void push_back(T value) {
    // Reclaim the popped prefix instead of growing when it is at least
    // half of a full buffer; each live element moves at most once per
    // popped one, so pushes stay amortized O(1).
    if (head_ > 0 && items_.size() == items_.capacity() &&
        2 * head_ >= items_.size()) {
      items_.erase(items_.begin(), begin());
      head_ = 0;
    }
    items_.push_back(std::move(value));
  }

  /// Removes and returns the oldest element.
  T take_front() {
    EDGEMM_ASSERT(!empty());
    T value = std::move(items_[head_]);
    pop_front();
    return value;
  }

  /// Removes and returns the element at `pos`, keeping the others in
  /// order. Costs O(distance from the front): the elements ahead of
  /// `pos` shift back one slot.
  T take(iterator pos) {
    EDGEMM_ASSERT(pos >= begin() && pos < end());
    T value = std::move(*pos);
    std::move_backward(begin(), pos, pos + 1);
    pop_front();
    return value;
  }

  void clear() noexcept {
    items_.clear();
    head_ = 0;
  }

  void swap(Fifo& other) noexcept {
    items_.swap(other.items_);
    std::swap(head_, other.head_);
  }

 private:
  /// Advances past a moved-from head slot; a drained queue releases its
  /// moved-from elements and keeps the capacity.
  void pop_front() noexcept {
    if (++head_ == items_.size()) clear();
  }

  std::vector<T> items_;
  std::size_t head_ = 0;  ///< index of the oldest live element
};

}  // namespace edgemm

#endif  // EDGEMM_COMMON_FIFO_HPP

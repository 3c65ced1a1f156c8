// A FIFO that keeps its capacity: a growable circular buffer for the per-packet queues
// (interface queues, the adapter's onboard receive slots, the ring's pending transmits,
// the DMA engine's queued requests).
//
// std::deque frees and reallocates a chunk every few elements as a queue cycles, and
// allocates a map and a chunk when it is constructed. Fifo allocates only when it grows
// past its largest size so far, so a queue in steady state allocates nothing, and an
// unused queue allocates nothing at all. Popping resets the slot to a default-constructed
// T, so a popped element's resources (a payload reference) are released at the pop, as
// std::deque's pop_front would.

#ifndef SRC_SIM_FIFO_H_
#define SRC_SIM_FIFO_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace ctms {

template <typename T>
class Fifo {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // Element `i` from the front. Requires i < size().
  T& operator[](size_t i) { return slots_[Physical(i)]; }
  const T& operator[](size_t i) const { return slots_[Physical(i)]; }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  void push_back(T value) {
    GrowIfFull();
    slots_[Physical(size_)] = std::move(value);
    ++size_;
  }

  void push_front(T value) {
    GrowIfFull();
    head_ = (head_ + slots_.size() - 1) & (slots_.size() - 1);
    slots_[head_] = std::move(value);
    ++size_;
  }

  // Inserts `value` so that it becomes element `i` (0 <= i <= size()); later elements move
  // back by one.
  void insert(size_t i, T value) {
    assert(i <= size_);
    GrowIfFull();
    for (size_t k = size_; k > i; --k) {
      slots_[Physical(k)] = std::move(slots_[Physical(k - 1)]);
    }
    slots_[Physical(i)] = std::move(value);
    ++size_;
  }

  // Removes the front element; its slot is reset, so what it held is released now.
  void pop_front() {
    assert(size_ > 0);
    slots_[head_] = T();
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  // Removes and returns the front element.
  T take_front() {
    T value = std::move(front());
    pop_front();
    return value;
  }

 private:
  size_t Physical(size_t i) const { return (head_ + i) & (slots_.size() - 1); }

  // Capacity is zero or a power of two, so wrapping is a mask.
  void GrowIfFull() {
    if (size_ < slots_.size()) {
      return;
    }
    std::vector<T> grown(slots_.empty() ? 4 : 2 * slots_.size());
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[Physical(i)]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace ctms

#endif  // SRC_SIM_FIFO_H_

// FIFO queue over a vector plus a head index.
//
// Used where the simulator holds many queues of which most stay empty: the
// network's per-channel message queues and each discovery node's queue of
// routed requests.  It allocates nothing before its first element, where a
// std::deque allocates its map and first chunk on construction (about 600
// bytes in libstdc++, whether or not anything is ever queued).
//
// Popping the last element rewinds the queue to the start of its buffer
// and keeps the buffer.  The network relies on that: a channel record
// retires when its queue drains, and the next channel opened in the same
// slab slot pushes into the kept buffer, so buffers are allocated per slot
// (per channel live at once), not per pair that ever carried a message.
// Once the head passes half the buffer, the live elements move down to the
// front, so the popped prefix never outgrows the backlog of a queue that
// never drains.  A vector and an index are nothrow-movable, so a vector of
// fifos grows by moving them instead of copying them.
#pragma once

#include <cassert>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "common/heap.h"

namespace asyncrd {

template <typename T>
class fifo {
 public:
  bool empty() const noexcept { return head_ == buf_.size(); }
  std::size_t size() const noexcept { return buf_.size() - head_; }
  /// Heap bytes the buffer holds, kept capacity included (memory
  /// reports, common/heap.h).
  std::size_t capacity_bytes() const noexcept {
    return heap_bytes(buf_.capacity() * sizeof(T));
  }

  void push_back(T v) { buf_.push_back(std::move(v)); }

  /// The oldest element (the queue must not be empty).
  const T& front() const {
    assert(!empty());
    return buf_[head_];
  }

  /// Removes and returns the oldest element (the queue must not be empty).
  T pop_front() {
    assert(!empty());
    T v = std::move(buf_[head_]);
    if (++head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    } else if (2 * head_ > buf_.size()) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return v;
  }

  /// Removes and returns the newest `k` elements (at most all of them),
  /// oldest first.
  std::vector<T> take_tail(std::size_t k) {
    assert(k <= size());
    const auto cut = buf_.end() - static_cast<std::ptrdiff_t>(k);
    std::vector<T> tail(std::make_move_iterator(cut),
                        std::make_move_iterator(buf_.end()));
    buf_.erase(cut, buf_.end());
    if (empty()) {
      buf_.clear();
      head_ = 0;
    }
    return tail;
  }

 private:
  std::vector<T> buf_;
  std::size_t head_ = 0;
};

}  // namespace asyncrd

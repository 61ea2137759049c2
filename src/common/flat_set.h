// Sorted-vector set with std::set's ascending iteration order.
//
// The discovery engine's per-node id sets (local, more, done, unaware,
// unexplored) and the knowledge graph's out-lists (graph/digraph.h) are
// queried and iterated far more often than they are mutated, and the
// protocol's bulk growth (info-message absorption) arrives as
// already-sorted ranges.  A red-black tree pays an allocation and
// a pointer chase per element for ordering the flat vector gets for free;
// profiles of large runs showed the _Rb_tree machinery among the simulator's
// hottest symbols.  flat_set keeps the elements contiguous: membership is a
// binary search, iteration is a linear scan, and bulk insertion is one
// merge.
//
// Determinism contract: iteration visits elements in strictly ascending
// order — exactly std::set's order — so every "pick the smallest" and
// "iterate members" decision in the engine is unchanged.
//
// Deliberate deviations from std::set:
//  * insert(value) returns bool (inserted?) instead of (iterator, bool);
//  * erase(first, last) erases a positional range (used by self_query's
//    prefix extraction);
//  * single-element insert/erase shift the vector tail: O(size) worst case,
//    which the engine's set sizes amortize well below tree-node overhead.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <set>
#include <vector>

namespace asyncrd {

template <typename T>
class flat_set {
 public:
  using value_type = T;
  using const_iterator = typename std::vector<T>::const_iterator;
  using iterator = const_iterator;  // elements are immutable in place

  flat_set() = default;
  flat_set(std::initializer_list<T> init) : data_(init) { normalize(); }
  template <typename It>
  flat_set(It first, It last) : data_(first, last) {
    normalize();
  }

  const_iterator begin() const noexcept { return data_.begin(); }
  const_iterator end() const noexcept { return data_.end(); }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }
  void clear() noexcept { data_.clear(); }

  bool contains(const T& v) const noexcept {
    return std::binary_search(data_.begin(), data_.end(), v);
  }
  std::size_t count(const T& v) const noexcept { return contains(v) ? 1 : 0; }

  const_iterator find(const T& v) const noexcept {
    const auto it = std::lower_bound(data_.begin(), data_.end(), v);
    return it != data_.end() && *it == v ? it : data_.end();
  }

  /// Inserts `v` if absent; returns true iff it was inserted.
  bool insert(const T& v) {
    const auto it = std::lower_bound(data_.begin(), data_.end(), v);
    if (it != data_.end() && *it == v) return false;
    data_.insert(it, v);
    return true;
  }

  /// Bulk insert: one merge, regardless of how the ranges interleave.
  /// The input need not be sorted or unique.  The incoming values are
  /// sorted in a per-thread scratch vector, the set grows by their count,
  /// and the two sorted runs merge backward from their tails into the grown
  /// storage, so no call allocates a temporary merge buffer.
  template <typename It>
  void insert(It first, It last) {
    if (first == last) return;
    // Safe to share: insert never re-enters itself.
    static thread_local std::vector<T> in;
    in.assign(first, last);
    std::sort(in.begin(), in.end());
    const auto old_end = static_cast<std::ptrdiff_t>(data_.size());
    data_.resize(data_.size() + in.size());
    auto a = data_.begin() + old_end;  // one past the last unmerged old value
    auto b = in.end();                 // one past the last unmerged new value
    auto out = data_.end();
    // Once the new values run out, the old ones left are already in place.
    while (b != in.begin()) {
      if (a != data_.begin() && *(a - 1) > *(b - 1))
        *--out = *--a;
      else
        *--out = *--b;
    }
    data_.erase(std::unique(data_.begin(), data_.end()), data_.end());
  }

  std::size_t erase(const T& v) {
    const auto it = std::lower_bound(data_.begin(), data_.end(), v);
    if (it == data_.end() || *it != v) return 0;
    data_.erase(it);
    return 1;
  }

  const_iterator erase(const_iterator pos) { return data_.erase(pos); }
  const_iterator erase(const_iterator first, const_iterator last) {
    return data_.erase(first, last);
  }

  friend bool operator==(const flat_set& a, const flat_set& b) {
    return a.data_ == b.data_;
  }
  /// Test convenience: compare against a std::set literal.
  friend bool operator==(const flat_set& a, const std::set<T>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  void normalize() {
    std::sort(data_.begin(), data_.end());
    data_.erase(std::unique(data_.begin(), data_.end()), data_.end());
  }

  std::vector<T> data_;
};

}  // namespace asyncrd

// Ordered set of node ids with std::set's ascending iteration order.
//
// The discovery engine's per-node id sets (local, more, done, unaware,
// unexplored) and the knowledge graph's out-lists (graph/digraph.h) are
// queried and iterated far more often than they are mutated, and the
// protocol's bulk growth (info-message absorption) arrives as
// already-sorted ranges.  A red-black tree pays an allocation and
// a pointer chase per element for ordering a flat layout gets for free;
// profiles of large runs showed the _Rb_tree machinery among the simulator's
// hottest symbols.
//
// Two forms, one type.  Both keep their elements in one owned buffer of
// 32-bit words:
//  * Sorted form, for small or sparse sets: the ids themselves, ascending.
//    Membership is a binary search, bulk insertion one merge, and a point
//    insert or erase shifts the tail.
//  * Bitmap form, for large dense sets: one bit per id over a window that
//    starts at a multiple of 32.  Point insert, erase and membership are
//    O(1), and a cursor on the first non-zero word keeps begin(), and so
//    erase-the-smallest, amortized O(1).  A leader of a large component
//    absorbs members one at a time into sets of thousands of ids; in the
//    sorted form each of those steps shifted a whole set.
// A set promotes to a bitmap once it holds at least 256 ids and the window
// from its lowest id (rounded down to a word) to its highest id needs at
// most one word per id, so the bitmap is never bigger than the vector it
// replaces.  It demotes to the sorted form on clear(), when it empties, and
// when an insert would need more than one word per id (an outlier id far
// from the rest).  Only mutating members move between forms or touch the
// cursor; const members only read, so one set may be read from several
// threads at once.
//
// Determinism contract: iteration visits elements in strictly ascending
// order in both forms — exactly std::set's order — so every "pick the
// smallest" and "iterate members" decision in the engine is unchanged.
//
// Deliberate deviations from std::set:
//  * elements are node ids only;
//  * iterators are forward iterators whose operator* returns the id by
//    value;
//  * insert(value) returns bool (inserted?) instead of (iterator, bool);
//  * erase(first, last) erases a positional range (used by self_query's
//    prefix extraction), and erase_sorted(first, last) erases every value
//    of an ascending range in one pass.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/ids.h"

namespace asyncrd {

template <typename T>
class flat_set {
  static_assert(std::is_same_v<T, node_id>, "flat_set holds node ids");

 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = T;

    const_iterator() = default;

    T operator*() const noexcept {
      return last_ == nullptr ? *pos_
                              : base_ + static_cast<T>(std::countr_zero(bits_));
    }
    const_iterator& operator++() noexcept {
      if (last_ == nullptr) {
        ++pos_;
        return *this;
      }
      bits_ &= bits_ - 1;
      while (bits_ == 0 && ++pos_ != last_) {
        bits_ = *pos_;
        base_ += 32;
      }
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) noexcept {
      return a.pos_ == b.pos_ && a.bits_ == b.bits_;
    }

   private:
    friend class flat_set;
    explicit const_iterator(const std::uint32_t* pos) noexcept : pos_(pos) {}
    const_iterator(const std::uint32_t* word, const std::uint32_t* last,
                   std::uint32_t bits, T base) noexcept
        : pos_(word), last_(last), bits_(bits), base_(base) {}

    // Sorted form: pos_ is the element and last_ is null.  Bitmap form:
    // pos_ is the element's word and last_ is one past the window.
    const std::uint32_t* pos_ = nullptr;
    const std::uint32_t* last_ = nullptr;
    std::uint32_t bits_ = 0;  // bitmap: the word's bits from the element up
    T base_ = 0;              // bitmap: the id of the word's bit 0
  };
  using value_type = T;
  using iterator = const_iterator;  // elements are immutable in place

  flat_set() noexcept = default;
  flat_set(std::initializer_list<T> init)
      : flat_set(init.begin(), init.end()) {}
  template <typename It>
  flat_set(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    if (n == 0) return;
    buf_ = allocate(n);
    cap_ = static_cast<std::uint32_t>(n);
    std::uint32_t* p = buf_.get();
    std::copy(first, last, p);
    std::sort(p, p + n);
    size_ = static_cast<std::uint32_t>(std::unique(p, p + n) - p);
    maybe_promote();
  }
  /// Like std::vector's copy, a sorted copy allocates only its elements; a
  /// bitmap copy copies the window.
  flat_set(const flat_set& o)
      : size_(o.size_),
        cap_(o.is_bitmap() ? o.cap_ : o.size_),
        base_(o.base_),
        first_(o.first_) {
    if (cap_ == 0) return;
    buf_ = allocate(cap_);
    std::copy_n(o.buf_.get(), cap_, buf_.get());
  }
  flat_set(flat_set&& o) noexcept
      : buf_(std::move(o.buf_)),
        size_(std::exchange(o.size_, 0)),
        cap_(std::exchange(o.cap_, 0)),
        base_(std::exchange(o.base_, sorted_form)),
        first_(std::exchange(o.first_, 0)) {}
  flat_set& operator=(flat_set o) noexcept {
    swap(o);
    return *this;
  }

  const_iterator begin() const noexcept {
    const std::uint32_t* p = buf_.get();
    if (!is_bitmap()) return const_iterator(p);
    return const_iterator(p + first_, p + cap_, p[first_],
                          base_ + 32 * first_);
  }
  const_iterator end() const noexcept {
    const std::uint32_t* p = buf_.get();
    if (!is_bitmap()) return const_iterator(p + size_);
    return const_iterator(p + cap_, p + cap_, 0, 0);
  }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Which form the set is in (tests pin the promote and demote rule).
  bool is_bitmap() const noexcept { return base_ != sorted_form; }
  /// Empties the set; the buffer stays as sorted-form capacity.
  void clear() noexcept {
    size_ = 0;
    mark_sorted();
  }

  bool contains(const T& v) const noexcept {
    const std::uint32_t* p = buf_.get();
    if (!is_bitmap()) return std::binary_search(p, p + size_, v);
    const std::uint64_t off = offset(v);
    return off < window_bits() && (p[off / 32] >> (off % 32) & 1u) != 0;
  }
  std::size_t count(const T& v) const noexcept { return contains(v) ? 1 : 0; }

  const_iterator find(const T& v) const noexcept {
    const std::uint32_t* p = buf_.get();
    if (!is_bitmap()) {
      const std::uint32_t* it = std::lower_bound(p, p + size_, v);
      return const_iterator(it != p + size_ && *it == v ? it : p + size_);
    }
    if (!contains(v)) return end();
    const std::uint64_t off = offset(v);
    const auto w = static_cast<std::uint32_t>(off / 32);
    return const_iterator(p + w, p + cap_, p[w] & (~0u << (off % 32)),
                          base_ + 32 * w);
  }

  /// Inserts `v` if absent; returns true iff it was inserted.
  bool insert(const T& v) {
    if (is_bitmap()) {
      if (offset(v) < window_bits() || regrow(v)) return set_bit(offset(v));
      // regrow demoted the set: insert into the sorted form.
    }
    std::uint32_t* p = buf_.get();
    const std::uint32_t* it = std::lower_bound(p, p + size_, v);
    if (it != p + size_ && *it == v) return false;
    const auto pos = static_cast<std::size_t>(it - p);
    if (size_ == cap_) {
      reallocate(grown(1));
      p = buf_.get();
    }
    std::copy_backward(p + pos, p + size_, p + size_ + 1);
    p[pos] = v;
    ++size_;
    maybe_promote();
    return true;
  }

  /// Bulk insert.  The input need not be sorted or unique.  A bitmap takes
  /// the values one at a time.  The sorted form merges them in one pass: the
  /// incoming values are sorted in a per-thread scratch vector, the set
  /// grows by their count, and the two sorted runs merge backward from their
  /// tails into the grown storage, so no call allocates a temporary merge
  /// buffer.
  template <typename It>
  void insert(It first, It last) {
    for (; first != last && is_bitmap(); ++first) insert(*first);
    if (first == last) return;
    // Safe to share: insert never re-enters itself.
    static thread_local std::vector<T> in;
    in.assign(first, last);
    std::sort(in.begin(), in.end());
    if (in.size() > cap_ - size_) reallocate(grown(in.size()));
    std::uint32_t* p = buf_.get();
    std::uint32_t* a = p + size_;  // one past the last unmerged old value
    auto b = in.end();             // one past the last unmerged new value
    std::uint32_t* out = p + size_ + in.size();
    // Once the new values run out, the old ones left are already in place.
    while (b != in.begin()) {
      if (a != p && *(a - 1) > *(b - 1))
        *--out = *--a;
      else
        *--out = *--b;
    }
    size_ = static_cast<std::uint32_t>(
        std::unique(p, p + size_ + in.size()) - p);
    maybe_promote();
  }

  std::size_t erase(const T& v) {
    if (is_bitmap()) {
      if (!contains(v)) return 0;
      clear_bit(offset(v));
      settle();
      return 1;
    }
    std::uint32_t* p = buf_.get();
    std::uint32_t* it = std::lower_bound(p, p + size_, v);
    if (it == p + size_ || *it != v) return 0;
    std::copy(it + 1, p + size_, it);
    --size_;
    return 1;
  }

  const_iterator erase(const_iterator pos) {
    return erase(pos, std::next(pos));
  }
  const_iterator erase(const_iterator first, const_iterator last) {
    std::uint32_t* p = buf_.get();
    if (!is_bitmap()) {
      std::uint32_t* from = p + (first.pos_ - p);
      std::copy(last.pos_, static_cast<const std::uint32_t*>(p + size_), from);
      size_ -= static_cast<std::uint32_t>(last.pos_ - first.pos_);
      return first;
    }
    // Clearing bits below an iterator's position leaves it valid.
    for (; first != last; ++first)
      clear_bit(32 * static_cast<std::uint64_t>(first.pos_ - p) +
                static_cast<unsigned>(std::countr_zero(first.bits_)));
    settle();
    return is_bitmap() ? last : end();
  }

  /// Erases every value of the ascending range [first, last); values the
  /// set does not hold are skipped.  The sorted form compacts once, from the
  /// first value it erases; a bitmap clears one bit per value.
  template <typename It>
  void erase_sorted(It first, It last) {
    if (first == last || size_ == 0) return;
    if (is_bitmap()) {
      for (; first != last; ++first)
        if (contains(*first)) clear_bit(offset(*first));
      settle();
      return;
    }
    std::uint32_t* p = buf_.get();
    std::uint32_t* const end = p + size_;
    std::uint32_t* out = std::lower_bound(p, end, *first);
    for (std::uint32_t* in = out; in != end; ++in) {
      while (first != last && *first < *in) ++first;
      if (first == last) {
        out = std::copy(in, end, out);
        break;
      }
      if (*first != *in) *out++ = *in;
    }
    size_ = static_cast<std::uint32_t>(out - p);
  }

  friend bool operator==(const flat_set& a, const flat_set& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  /// Test convenience: compare against a std::set literal.
  friend bool operator==(const flat_set& a, const std::set<T>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  void swap(flat_set& o) noexcept {
    std::swap(buf_, o.buf_);
    std::swap(size_, o.size_);
    std::swap(cap_, o.cap_);
    std::swap(base_, o.base_);
    std::swap(first_, o.first_);
  }

  /// base_ of a sorted-form set.  Bitmap bases are multiples of 32.
  static constexpr std::uint32_t sorted_form = 1;
  /// The fewest ids a bitmap holds when it is made.
  static constexpr std::uint32_t min_bitmap_size = 256;
  /// Words covering every node id.
  static constexpr std::uint64_t max_words = std::uint64_t{1} << 27;

  static std::unique_ptr<std::uint32_t[]> allocate(std::size_t words) {
    return std::make_unique_for_overwrite<std::uint32_t[]>(words);
  }

  /// Bit index of `v` in the window; past window_bits() when `v` lies
  /// outside it, below the base included (the subtraction wraps).
  std::uint64_t offset(T v) const noexcept {
    return std::uint64_t{v} - std::uint64_t{base_};
  }
  std::uint64_t window_bits() const noexcept {
    return std::uint64_t{32} * cap_;
  }

  /// std::vector's growth rule: the capacity to hold `extra` more ids.
  std::uint32_t grown(std::size_t extra) const {
    constexpr std::size_t max = std::numeric_limits<std::uint32_t>::max();
    if (extra > max - size_) throw std::length_error("flat_set: too many ids");
    return static_cast<std::uint32_t>(
        std::min(max, std::size_t{size_} + std::max<std::size_t>(size_, extra)));
  }

  /// Sorted form: moves the ids into a buffer of `cap` words.
  void reallocate(std::uint32_t cap) {
    auto next = allocate(cap);
    std::copy_n(buf_.get(), size_, next.get());
    buf_ = std::move(next);
    cap_ = cap;
  }

  /// Sorted form: becomes a bitmap if the set is large and dense enough.
  /// The bitmap gets as many words as the vector had room for ids, which
  /// covers the window.
  void maybe_promote() {
    if (size_ < min_bitmap_size) return;
    const std::uint32_t* p = buf_.get();
    const std::uint32_t lo = p[0] & ~std::uint32_t{31};
    if ((p[size_ - 1] - lo) / 32 + 1 > size_) return;
    auto words = allocate(cap_);
    std::fill_n(words.get(), cap_, 0u);
    for (const std::uint32_t* it = p; it != p + size_; ++it)
      words[(*it - lo) / 32] |= std::uint32_t{1} << ((*it - lo) % 32);
    buf_ = std::move(words);
    base_ = lo;
    first_ = 0;
  }

  /// Bitmap form: moves the window so it also covers `v`, which lies
  /// outside it, and returns true; or, when the new window would need more
  /// than one word per id, turns the set into the sorted form and returns
  /// false.  Spare words go on the side the window grows toward.
  bool regrow(T v) {
    const std::uint32_t* p = buf_.get();
    std::uint32_t top = cap_ - 1;
    while (p[top] == 0) --top;
    const std::uint64_t vw = v & ~std::uint32_t{31};
    const std::uint64_t lo = std::min(vw, base_ + std::uint64_t{32} * first_);
    const std::uint64_t hi = std::max(vw, base_ + std::uint64_t{32} * top);
    const std::uint64_t need = (hi - lo) / 32 + 1;
    if (need > std::uint64_t{size_} + 1) {
      const std::uint32_t cap = grown(1);
      auto ids = allocate(cap);
      std::copy(begin(), end(), ids.get());
      buf_ = std::move(ids);
      cap_ = cap;
      mark_sorted();
      return false;
    }
    const std::uint64_t cap = std::max(
        need, std::min({2 * std::uint64_t{cap_}, 2 * (std::uint64_t{size_} + 1),
                        max_words}));
    const std::uint64_t spare = 32 * (cap - need);
    const std::uint64_t base = v >= base_ ? lo : lo > spare ? lo - spare : 0;
    // The live words [first_, top] move; the zero words around them do not.
    const std::uint64_t first = (base_ + std::uint64_t{32} * first_ - base) / 32;
    auto words = allocate(cap);
    std::fill_n(words.get(), cap, 0u);
    std::copy(p + first_, p + top + 1, words.get() + first);
    buf_ = std::move(words);
    cap_ = static_cast<std::uint32_t>(cap);
    first_ = static_cast<std::uint32_t>(first);
    base_ = static_cast<std::uint32_t>(base);
    return true;
  }

  /// Bitmap form: sets bit `off` of the window; true iff it was clear.
  bool set_bit(std::uint64_t off) noexcept {
    const auto w = static_cast<std::uint32_t>(off / 32);
    const std::uint32_t bit = std::uint32_t{1} << (off % 32);
    if ((buf_[w] & bit) != 0) return false;
    buf_[w] |= bit;
    ++size_;
    first_ = std::min(first_, w);
    return true;
  }
  /// Bitmap form: clears bit `off`, which is set; settle() must follow.
  void clear_bit(std::uint64_t off) noexcept {
    buf_[off / 32] &= ~(std::uint32_t{1} << (off % 32));
    --size_;
  }
  /// Bitmap form, after erasing: an empty set turns sorted, and the cursor
  /// moves to the first non-zero word.
  void settle() noexcept {
    if (size_ == 0) {
      mark_sorted();
      return;
    }
    while (buf_[first_] == 0) ++first_;
  }
  /// The buffer holds the set's ids, ascending, from here on.
  void mark_sorted() noexcept {
    base_ = sorted_form;
    first_ = 0;
  }

  std::unique_ptr<std::uint32_t[]> buf_;  // ids, or the bitmap's words
  std::uint32_t size_ = 0;                // ids held, in either form
  std::uint32_t cap_ = 0;                 // words allocated at buf_
  std::uint32_t base_ = sorted_form;      // bitmap: the id of word 0's bit 0
  std::uint32_t first_ = 0;  // bitmap: index of the first non-zero word
};

}  // namespace asyncrd

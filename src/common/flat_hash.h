// Minimal open-addressed hash map: 64-bit key -> 32-bit index.
//
// Purpose-built for the simulator's dense-index tables (node id -> slot
// index, packed (from, to) channel key -> channel index): linear probing in
// one flat array, power-of-two capacity, fibonacci hashing.  erase uses
// backward-shift deletion, so there are no tombstones: after any mix of
// inserts and erases every probe is as short as in a table that never held
// the erased keys.  The network's channel index relies on that, since it
// erases a channel the moment the channel drains.  Compared to std::map this
// removes the per-lookup pointer chase and allocation per insert; compared
// to std::unordered_map it removes the bucket indirection and keeps the
// whole table in a few cache lines for small systems.
//
// Key restriction: the all-ones 64-bit key is reserved as the empty marker.
// The simulator's keys never take it: node ids are 32-bit values
// (zero-extended), and a packed (from, to) pair is all ones only if both
// halves are 2^32 - 1, which no slot index is and which as a node id is
// invalid_node.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace asyncrd {

class flat_u64_map {
 public:
  /// Returned by find() for absent keys.  Never a valid mapped value.
  static constexpr std::uint32_t npos = ~std::uint32_t{0};

  flat_u64_map() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Pre-sizes for `n` keys without rehashing on the way there.
  void reserve(std::size_t n) {
    std::size_t want = 16;
    while (want * max_load_num < n * max_load_den) want <<= 1;
    if (want > slots_.size()) rehash(want);
  }

  /// Mapped value for `key`, or npos.
  std::uint32_t find(std::uint64_t key) const noexcept {
    assert(key != empty_key);
    if (slots_.empty()) return npos;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = probe_start(key);; i = (i + 1) & mask) {
      const entry& e = slots_[i];
      if (e.key == key) return e.value;
      if (e.key == empty_key) return npos;
    }
  }

  /// Inserts (key -> value); the key must not be present.
  void insert(std::uint64_t key, std::uint32_t value) {
    assert(key != empty_key && value != npos);
    [[maybe_unused]] const bool inserted = try_insert(key, value);
    assert(inserted && "flat_u64_map::insert: duplicate key");
  }

  /// Single-probe upsert-if-absent: inserts (key -> value) and returns true,
  /// or returns false if the key is already present (value untouched).
  bool try_insert(std::uint64_t key, std::uint32_t value) {
    assert(key != empty_key && value != npos);
    if ((size_ + 1) * max_load_den > slots_.size() * max_load_num)
      rehash(slots_.empty() ? 16 : slots_.size() * 2);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = probe_start(key);; i = (i + 1) & mask) {
      entry& e = slots_[i];
      if (e.key == key) return false;
      if (e.key == empty_key) {
        e.key = key;
        e.value = value;
        ++size_;
        return true;
      }
    }
  }

  /// Removes `key`; returns false if it was absent.  Each entry after the
  /// erased one in its probe cluster moves back into the hole when its home
  /// slot allows, so lookups never pass a deleted marker.
  bool erase(std::uint64_t key) noexcept {
    assert(key != empty_key);
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = probe_start(key);
    for (;; hole = (hole + 1) & mask) {
      if (slots_[hole].key == key) break;
      if (slots_[hole].key == empty_key) return false;
    }
    for (std::size_t j = (hole + 1) & mask; slots_[j].key != empty_key;
         j = (j + 1) & mask) {
      // The entry at j may fill the hole iff the hole lies on its probe
      // path, i.e. its home slot is no closer to j than the hole is.
      const std::size_t home = probe_start(slots_[j].key);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = entry{};
    --size_;
    return true;
  }

  void clear() noexcept {
    slots_.clear();
    size_ = 0;
  }

  /// Visits every (key, value) pair in unspecified order.
  template <typename F>
  void for_each(F&& f) const {
    for (const entry& e : slots_)
      if (e.key != empty_key) f(e.key, e.value);
  }

 private:
  static constexpr std::uint64_t empty_key = ~std::uint64_t{0};
  // Max load factor 7/8: probes stay short while the table stays compact.
  static constexpr std::size_t max_load_num = 7;
  static constexpr std::size_t max_load_den = 8;

  struct entry {
    std::uint64_t key = empty_key;
    std::uint32_t value = 0;
  };

  std::size_t probe_start(std::uint64_t key) const noexcept {
    // Fibonacci hashing: multiply by 2^64 / phi, take the top bits.
    const std::uint64_t h = key * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> shift_);
  }

  void rehash(std::size_t new_cap) {
    std::vector<entry> old = std::move(slots_);
    slots_.assign(new_cap, entry{});
    shift_ = 64;
    for (std::size_t c = new_cap; c > 1; c >>= 1) --shift_;
    size_ = 0;
    for (const entry& e : old)
      if (e.key != empty_key) insert(e.key, e.value);
  }

  std::vector<entry> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace asyncrd

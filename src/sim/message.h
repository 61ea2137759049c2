// Message base class for the asynchronous message-passing substrate.
//
// The paper measures algorithms by (a) total number of messages and (b)
// total number of bits.  Ids cost O(log n) bits each; integer fields such as
// phase counters or requested-count arguments are also O(log n) bits (phases
// never exceed log n, counts never exceed n + 1).  Every concrete message
// reports how many id-sized fields, integer fields, and flag bits it
// carries; sim::stats converts that to a bit count using the actual
// ceil(log2 n) of the network under test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

namespace asyncrd::sim {

/// Abstract message.  Concrete messages are immutable value objects created
/// once and shared by pointer; the simulator never copies payloads.
class message {
 public:
  virtual ~message() = default;

  /// Cheap dispatch tag for protocol layers whose receive path would
  /// otherwise chain dynamic_casts per delivery.  0 means untagged (the
  /// receiver falls back to whatever general dispatch it has); a protocol
  /// layer reserves its own nonzero values (core/messages.h) and may
  /// static_cast after switching on the tag.
  std::uint8_t dispatch_tag() const noexcept { return tag_; }

  /// Stable name used for per-type accounting (e.g. "search", "release").
  virtual std::string_view type_name() const noexcept = 0;

  /// Number of node-id payload fields (each charged ceil(log2 n) bits).
  virtual std::size_t id_fields() const noexcept = 0;

  /// Number of integer payload fields (phase, count, ...), also O(log n).
  virtual std::size_t int_fields() const noexcept { return 0; }

  /// Number of constant-size flag bits (booleans, merge/abort tags, ...).
  virtual std::size_t flag_bits() const noexcept { return 0; }

  /// Total size in bits given the id width of the network under test.
  /// header_bits models the constant-size message-type tag.
  std::size_t bits(std::size_t id_bits) const noexcept {
    return (id_fields() + int_fields()) * id_bits + flag_bits() + header_bits;
  }

  static constexpr std::size_t header_bits = 4;

 protected:
  message() noexcept = default;
  explicit message(std::uint8_t tag) noexcept : tag_(tag) {}

 private:
  std::uint8_t tag_ = 0;
};

using message_ptr = std::shared_ptr<const message>;

// --- pooled message allocation --------------------------------------------
//
// One heap allocation per send used to dominate the simulator's hot path
// (make_shared -> operator new for every message).  make_message now routes
// through a size-classed free-list pool: allocate_shared places control
// block and payload in one block, and freed blocks are recycled instead of
// returned to the heap.  The common case (send -> deliver -> drop, nothing
// parked) becomes two pointer pops/pushes on a thread-local free list.
//
// The pool is thread-local, so parallel_sweep workers need no coordination;
// a block freed on a different thread than it was allocated on simply
// migrates to the freeing thread's pool (the memory itself is ordinary
// operator-new memory, owned by no thread).

namespace pool_detail {

/// Allocates `bytes` from the calling thread's pool (falls back to
/// operator new for sizes above the largest size class).
void* allocate(std::size_t bytes);

/// Returns a block to the calling thread's pool (or the heap).
void deallocate(void* p, std::size_t bytes) noexcept;

/// Blocks currently cached by the calling thread's pool (tests/telemetry).
std::size_t cached_blocks() noexcept;

/// Frees every cached block of the calling thread back to the heap.
void trim() noexcept;

/// Frees every block cached on the cross-thread reclaim list.
void trim_global() noexcept;

/// Pool occupancy and cross-thread migration counters.  The thread_*
/// fields describe the calling thread's cache; the reclaim counters and
/// the live/peak gauges are process-wide (telemetry::record_pool exports
/// them).
struct pool_stats {
  std::size_t thread_cached_blocks = 0;
  std::size_t thread_cached_bytes = 0;
  std::size_t global_cached_blocks = 0;
  /// Heap bytes of every free block the pool keeps, the calling thread's
  /// cache and the reclaim list together, each block counted as the
  /// allocator holds it (common/heap.h): what memory reports charge the
  /// pool beyond its live blocks.
  std::size_t cached_heap_bytes = 0;
  std::uint64_t reclaim_donations = 0;  ///< blocks spilled thread -> global
  std::uint64_t reclaim_grabs = 0;      ///< blocks refilled global -> thread
  /// Bytes currently resident in live pool blocks (allocated minus freed,
  /// charged at the block's full class size), across all threads.
  std::int64_t live_bytes = 0;
  /// High-water mark of live_bytes since the last reset_peak_bytes().
  std::int64_t peak_bytes = 0;
};

pool_stats stats() noexcept;

/// Restarts the live-byte high-water mark from the current level, so a
/// bench can measure one workload's footprint in isolation.
void reset_peak_bytes() noexcept;

}  // namespace pool_detail

/// Minimal allocator over the thread-local message pool, for
/// std::allocate_shared.  Stateless: all instances compare equal.
template <typename T>
struct pool_allocator {
  using value_type = T;

  pool_allocator() noexcept = default;
  template <typename U>
  pool_allocator(const pool_allocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(pool_detail::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    pool_detail::deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const pool_allocator<U>&) const noexcept {
    return true;
  }
};

/// Convenience factory: make_message<search_msg>(args...).  Control block
/// and message share one pooled allocation.
template <typename M, typename... Args>
message_ptr make_message(Args&&... args) {
  return std::allocate_shared<const M>(pool_allocator<const M>{},
                                       std::forward<Args>(args)...);
}

}  // namespace asyncrd::sim

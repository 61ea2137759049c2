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

// --- counted message allocation ------------------------------------------
//
// make_message, core::id_vec and wire_msg's spilled frames allocate through
// pool_allocator: operator new and operator delete, plus two process-wide
// gauges, the message bytes live now and their high-water mark.  Run reports
// (mem.pool_live_bytes) and perfbench (sim.pool_peak_bytes) read a run's
// message footprint from them.  Each block is the exact size asked for.

namespace pool_detail {

/// operator new(bytes), charged to the gauges once it has returned.
void* allocate(std::size_t bytes);

/// operator delete(p), refunding `bytes` on whichever thread frees.
void deallocate(void* p, std::size_t bytes) noexcept;

/// No-ops: perfbench/src/spans.cpp calls them and is frozen with the benchmark.
inline void trim() noexcept {}
inline void trim_global() noexcept {}

struct pool_stats {
  /// Message bytes allocated and not yet freed, across all threads.
  std::int64_t live_bytes = 0;
  /// High-water mark of live_bytes since the last reset_peak_bytes().
  std::int64_t peak_bytes = 0;
};

pool_stats stats() noexcept;

/// Restarts the live-byte high-water mark from the current level, so a
/// bench can measure one workload's footprint in isolation.
void reset_peak_bytes() noexcept;

}  // namespace pool_detail

/// Minimal allocator over the counted message heap, for
/// std::allocate_shared and id vectors.  Stateless: all instances compare
/// equal.
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
/// and message share one counted allocation.
template <typename M, typename... Args>
message_ptr make_message(Args&&... args) {
  return std::allocate_shared<const M>(pool_allocator<const M>{},
                                       std::forward<Args>(args)...);
}

}  // namespace asyncrd::sim

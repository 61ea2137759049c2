// Counting allocator behind sim::make_message, core::id_vec and wire_msg's
// spilled frames: every block comes from operator new and goes back to
// operator delete, and two gauges follow the message bytes in between.
//
// A block may be freed on another thread than the one that allocated it, so
// the gauges are process-wide relaxed atomics: per-thread counts could drift
// negative.
#include "sim/message.h"

#include <atomic>
#include <new>

namespace asyncrd::sim::pool_detail {

namespace {

std::atomic<std::int64_t> live_bytes_{0};
std::atomic<std::int64_t> peak_bytes_{0};

}  // namespace

void* allocate(std::size_t bytes) {
  void* p = ::operator new(bytes);
  const auto b = static_cast<std::int64_t>(bytes);
  const std::int64_t now =
      live_bytes_.fetch_add(b, std::memory_order_relaxed) + b;
  std::int64_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (now > peak && !peak_bytes_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  return p;
}

void deallocate(void* p, std::size_t bytes) noexcept {
  live_bytes_.fetch_sub(static_cast<std::int64_t>(bytes),
                        std::memory_order_relaxed);
  ::operator delete(p, bytes);
}

pool_stats stats() noexcept {
  return {live_bytes_.load(std::memory_order_relaxed),
          peak_bytes_.load(std::memory_order_relaxed)};
}

void reset_peak_bytes() noexcept {
  peak_bytes_.store(live_bytes_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
}

}  // namespace asyncrd::sim::pool_detail

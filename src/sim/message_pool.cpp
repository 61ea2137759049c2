// Thread-local size-classed free-list pool behind sim::make_message.
//
// Size classes are 16-byte steps up to 512 bytes — every concrete message in
// the tree (a vtable pointer plus a handful of ids/integers, wrapped in a
// shared_ptr control block) lands in the first few classes.  Each class
// caches up to `max_cached` blocks and each *thread* caches at most
// `max_thread_bytes` across all classes.
//
// Cross-thread migration: a block freed on a different thread than it was
// allocated on lands in the freeing thread's cache.  If that flow is
// systematically one-way — a producer thread allocates messages, a
// consumer frees them — then without a cap the consumer's cache would grow
// without bound while the producer allocates fresh heap blocks forever.
// Overflow therefore spills, in batches, to a global mutex-protected reclaim list,
// and a thread whose local class list misses refills from that list (again
// in batches) before touching operator new.  The lock is taken once per
// batch, not per block, so the serial hot path (send -> deliver -> drop on
// one thread) still never synchronizes.
#include "sim/message.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

namespace asyncrd::sim::pool_detail {

namespace {

constexpr std::size_t class_step = 16;
constexpr std::size_t class_count = 32;  // largest pooled block: 512 bytes
constexpr std::size_t max_bytes = class_step * class_count;
constexpr std::size_t max_cached = 4096;  // per class, per thread
/// Total bytes one thread may cache across all classes; overflow spills to
/// the global reclaim list.
constexpr std::size_t max_thread_bytes = std::size_t{1} << 20;  // 1 MiB
/// Blocks moved per lock acquisition (both directions).
constexpr std::size_t reclaim_batch = 64;
/// Per-class cap on the global reclaim list; beyond it blocks go to the
/// heap, so even a pathological producer/consumer split cannot pin memory.
constexpr std::size_t max_global_cached = 8192;

struct free_lists {
  std::vector<void*> cls[class_count];
  std::size_t bytes = 0;  ///< total bytes currently cached locally

  ~free_lists() {
    for (auto& list : cls)
      for (void* p : list) ::operator delete(p);
  }
};

free_lists& local() {
  thread_local free_lists lists;
  return lists;
}

/// Cross-thread reclaim list (see file comment).  Counters are cumulative
/// process-wide telemetry.
struct global_pool {
  std::mutex mu;
  std::vector<void*> cls[class_count];
  std::size_t blocks = 0;        ///< cached blocks across classes
  std::uint64_t donations = 0;   ///< blocks spilled thread -> global
  std::uint64_t grabs = 0;       ///< blocks refilled global -> thread

  ~global_pool() {
    for (auto& list : cls)
      for (void* p : list) ::operator delete(p);
  }
};

global_pool& global() {
  static global_pool pool;
  return pool;
}

/// Live-byte gauges: allocate charges the block's full charged size (class
/// size for pooled blocks, exact size above the largest class); deallocate
/// refunds it on whichever thread frees.  Process-wide relaxed atomics —
/// a block may be freed on another thread than the one that allocated it,
/// so per-thread gauges could drift negative.  These count *live* blocks
/// handed to callers, not free-list inventory: the messages' resident
/// footprint, which bench_sim_throughput records per configuration.
std::atomic<std::int64_t> live_bytes_{0};
std::atomic<std::int64_t> peak_bytes_{0};

void charge(std::size_t bytes) noexcept {
  const auto b = static_cast<std::int64_t>(bytes);
  const std::int64_t now =
      live_bytes_.fetch_add(b, std::memory_order_relaxed) + b;
  std::int64_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (now > peak && !peak_bytes_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void refund(std::size_t bytes) noexcept {
  live_bytes_.fetch_sub(static_cast<std::int64_t>(bytes),
                        std::memory_order_relaxed);
}

/// Class index for a byte size (size must be in (0, max_bytes]).
std::size_t class_of(std::size_t bytes) noexcept {
  return (bytes - 1) / class_step;
}

std::size_t class_bytes(std::size_t ci) noexcept {
  return (ci + 1) * class_step;
}

/// Spills `p` plus up to a batch of the local class list to the global
/// reclaim list (one lock).  Blocks beyond the global cap go to the heap.
void donate(free_lists& fl, std::size_t ci, void* p) noexcept {
  try {
    global_pool& g = global();
    const std::lock_guard<std::mutex> lock(g.mu);
    auto& gl = g.cls[ci];
    if (gl.size() >= max_global_cached) {
      ::operator delete(p);
      return;
    }
    gl.push_back(p);
    ++g.blocks;
    ++g.donations;
    auto& list = fl.cls[ci];
    const std::size_t cb = class_bytes(ci);
    std::size_t n = std::min(list.size(), reclaim_batch);
    while (n-- != 0 && gl.size() < max_global_cached) {
      gl.push_back(list.back());
      list.pop_back();
      fl.bytes -= cb;
      ++g.blocks;
      ++g.donations;
    }
  } catch (...) {
    // Lock or vector growth failed: drop to the heap rather than violating
    // noexcept.
    ::operator delete(p);
  }
}

}  // namespace

void* allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  if (bytes > max_bytes) {
    void* p = ::operator new(bytes);
    charge(bytes);
    return p;
  }
  const std::size_t ci = class_of(bytes);
  charge(class_bytes(ci));
  free_lists& fl = local();
  auto& list = fl.cls[ci];
  if (!list.empty()) {
    void* p = list.back();
    list.pop_back();
    fl.bytes -= class_bytes(ci);
    return p;
  }
  // Local miss: batch-refill from the global reclaim list before paying for
  // operator new.
  global_pool& g = global();
  {
    const std::lock_guard<std::mutex> lock(g.mu);
    auto& gl = g.cls[ci];
    if (!gl.empty()) {
      std::size_t take = std::min(gl.size(), reclaim_batch);
      g.blocks -= take;
      g.grabs += take;
      void* ret = gl.back();
      gl.pop_back();
      --take;
      while (take-- != 0) {
        list.push_back(gl.back());  // push first: exception-safe transfer
        gl.pop_back();
        fl.bytes += class_bytes(ci);
      }
      return ret;
    }
  }
  // Allocate the class's full size so the block is reusable for any request
  // in the same class.
  return ::operator new(class_bytes(ci));
}

void deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes == 0) bytes = 1;
  if (bytes > max_bytes) {
    refund(bytes);
    ::operator delete(p);
    return;
  }
  const std::size_t ci = class_of(bytes);
  refund(class_bytes(ci));
  free_lists& fl = local();
  auto& list = fl.cls[ci];
  const std::size_t cb = class_bytes(ci);
  if (list.size() >= max_cached || fl.bytes + cb > max_thread_bytes) {
    donate(fl, ci, p);
    return;
  }
  try {
    list.push_back(p);
    fl.bytes += cb;
  } catch (...) {
    // Growing the free list itself failed (OOM): drop the block to the heap
    // rather than violating noexcept.
    ::operator delete(p);
  }
}

std::size_t cached_blocks() noexcept {
  std::size_t total = 0;
  for (const auto& list : local().cls) total += list.size();
  return total;
}

void trim() noexcept {
  free_lists& fl = local();
  for (auto& list : fl.cls) {
    for (void* p : list) ::operator delete(p);
    list.clear();
  }
  fl.bytes = 0;
}

void trim_global() noexcept {
  try {
    global_pool& g = global();
    const std::lock_guard<std::mutex> lock(g.mu);
    for (auto& list : g.cls) {
      for (void* p : list) ::operator delete(p);
      list.clear();
    }
    g.blocks = 0;
  } catch (...) {
    // Lock failure: leave the cache in place (it is still accounted).
  }
}

pool_stats stats() noexcept {
  pool_stats s;
  free_lists& fl = local();
  for (const auto& list : fl.cls) s.thread_cached_blocks += list.size();
  s.thread_cached_bytes = fl.bytes;
  try {
    global_pool& g = global();
    const std::lock_guard<std::mutex> lock(g.mu);
    s.global_cached_blocks = g.blocks;
    s.reclaim_donations = g.donations;
    s.reclaim_grabs = g.grabs;
  } catch (...) {
  }
  s.live_bytes = live_bytes_.load(std::memory_order_relaxed);
  s.peak_bytes = peak_bytes_.load(std::memory_order_relaxed);
  return s;
}

void reset_peak_bytes() noexcept {
  peak_bytes_.store(live_bytes_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
}

}  // namespace asyncrd::sim::pool_detail

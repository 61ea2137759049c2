// What a heap buffer costs, for memory reports.
//
// The run's memory parts (sim::network::memory_parts,
// core::discovery_run::memory_parts) count each buffer at what the
// allocator holds for it, not at its nominal capacity: most of a run's
// buffers are small (a node's id sets hold a few ids), and for those the
// allocator's header and rounding are a large share.  The rule is glibc's
// on 64-bit hosts: an 8-byte header, 16-byte granularity, 32 bytes at
// least.  A buffer large enough to be mmapped is rounded to a page
// instead, which the rule misses by under a page.
#pragma once

#include <cstddef>

namespace asyncrd {

/// Bytes the allocator holds for a request of `n` bytes; 0 for no request.
constexpr std::size_t heap_bytes(std::size_t n) noexcept {
  if (n == 0) return 0;
  const std::size_t chunk = (n + 8 + 15) & ~std::size_t{15};
  return chunk < 32 ? 32 : chunk;
}

}  // namespace asyncrd

#include "sim/wire.h"

#include <cstring>

namespace asyncrd::sim::wire {

std::uint64_t reader::varint() {
  std::uint64_t v = 0;
  unsigned shift = 0;
  for (;;) {
    if (p_ == end_) throw decode_error("wire: truncated varint");
    const std::uint8_t b = *p_++;
    if (shift == 63 && (b & 0x7E) != 0)
      throw decode_error("wire: varint exceeds 64 bits");
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) throw decode_error("wire: varint exceeds 64 bits");
  }
}

}  // namespace asyncrd::sim::wire

namespace asyncrd::sim {

wire_msg::wire_msg(const std::uint8_t* frame, std::size_t len)
    : message(frame[0]), len_(static_cast<std::uint32_t>(len)) {
  std::uint8_t* dst = inline_;
  if (len_ > inline_capacity) {
    heap_ = static_cast<std::uint8_t*>(pool_detail::allocate(len_));
    dst = heap_;
  }
  std::memcpy(dst, frame, len_);
}

wire_msg::~wire_msg() {
  if (len_ > inline_capacity) pool_detail::deallocate(heap_, len_);
}

}  // namespace asyncrd::sim

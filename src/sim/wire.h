// Compact binary wire framing: what a message looks like on a socket.
//
// A frame is: one header byte (wire::wire_bit | inner dispatch_tag), then
// the payload the protocol's encoder wrote for that tag — varint scalar
// fields and sorted-id-set payloads encoded as varint *deltas*.  Frames
// exist only where a message crosses a process boundary: a service-mode
// gateway encodes each remote send once, and the UDP transport decodes
// each arriving frame back into its struct.  Inside a process every
// message is a struct.
//
// Varints are LEB128: 7 payload bits per byte, least-significant group
// first, high bit set on every byte except the last.  An id set with ids
// a1 < a2 < ... < ak is encoded as
//
//   varint(k)  varint(a1)  varint(a2-a1) ... varint(ak-a(k-1))
//
// with every delta >= 1 (a zero delta, a truncated varint, or an id-sum
// overflow makes the frame malformed and the decoder throws decode_error).
//
// This layer is protocol-agnostic: it knows bytes, varints, and delta sets.
// The paper's 13 message types are encoded and decoded by core::wire
// (core/messages.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "sim/message.h"

namespace asyncrd::sim::wire {

/// Set on the dispatch_tag of every encoded frame (and of wire_msg itself):
/// header byte = wire_bit | inner tag.  Core tags are 1..13, so the bit is
/// free.
inline constexpr std::uint8_t wire_bit = 0x80;

/// Appends v as a LEB128 varint (1..10 bytes).
inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Encoded size of v as a varint, in bytes.
inline std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Appends a strictly-increasing id range as a delta set (grammar above).
/// Precondition: ids are strictly increasing; the decoder enforces it.
template <typename Range>
void put_id_set(std::vector<std::uint8_t>& out, const Range& ids) {
  put_varint(out, static_cast<std::uint64_t>(ids.size()));
  std::uint64_t prev = 0;
  bool first = true;
  for (const auto id : ids) {
    const std::uint64_t v = static_cast<std::uint64_t>(id);
    put_varint(out, first ? v : v - prev);
    prev = v;
    first = false;
  }
}

/// Thrown on any malformed frame: truncated varint, varint wider than 64
/// bits, unknown tag, zero delta, id overflow, or trailing garbage.
class decode_error : public std::runtime_error {
 public:
  explicit decode_error(const char* what) : std::runtime_error(what) {}
};

/// Bounds-checked cursor over an encoded frame.  All reads throw
/// decode_error instead of walking past the end.
class reader {
 public:
  reader(const std::uint8_t* data, std::size_t len) noexcept
      : p_(data), end_(data + len) {}

  bool done() const noexcept { return p_ == end_; }
  const std::uint8_t* pos() const noexcept { return p_; }
  std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

  std::uint8_t byte() {
    if (p_ == end_) throw decode_error("wire: truncated frame");
    return *p_++;
  }

  std::uint64_t varint();

  /// Rejects frames with bytes after the last field.
  void expect_end() const {
    if (p_ != end_) throw decode_error("wire: trailing bytes after payload");
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// Reads one delta set (grammar above) and appends its ids to `out` in
/// ascending order.  The declared count is checked against the bytes left
/// before anything is reserved: each id costs at least one byte, so a
/// larger count is malformed by arithmetic, and a few-byte hostile frame
/// cannot make the reader reserve gigabytes.  Throws decode_error on that,
/// on truncation, on a zero delta, on an id past 64 bits, and on an id
/// that does not fit T.
template <typename T, typename Alloc>
void read_id_set(reader& r, std::vector<T, Alloc>& out) {
  const std::uint64_t count = r.varint();
  if (count > r.remaining())
    throw decode_error("wire: id set count exceeds frame");
  out.reserve(out.size() + static_cast<std::size_t>(count));
  std::uint64_t cur = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t d = r.varint();
    if (i == 0) {
      cur = d;
    } else {
      if (d == 0) throw decode_error("wire: id set delta is zero (not sorted)");
      if (d > std::numeric_limits<std::uint64_t>::max() - cur)
        throw decode_error("wire: id set overflows 64 bits");
      cur += d;
    }
    if constexpr (sizeof(T) < sizeof(std::uint64_t)) {
      if (cur > std::numeric_limits<T>::max())
        throw decode_error("wire: id set element exceeds the id range");
    }
    out.push_back(static_cast<T>(cur));
  }
}

}  // namespace asyncrd::sim::wire

namespace asyncrd::sim {

/// One encoded frame on its way to a socket: the box a service-mode gateway
/// hands to the UDP-side ARQ, which may hold it for retransmission.  It
/// carries the frame's bytes only; the struct it was encoded from has
/// already been accounted by the network.  dispatch_tag is the frame's
/// header byte (wire::wire_bit | inner tag).
///
/// The frame lives inline for small messages (every fixed-field message
/// fits) and spills to a counted heap block (sim::pool_detail::allocate)
/// for large id sets.
class wire_msg final : public message {
 public:
  /// Precondition: len >= 1 (a frame always has its header byte).
  wire_msg(const std::uint8_t* frame, std::size_t len);
  ~wire_msg() override;

  wire_msg(const wire_msg&) = delete;
  wire_msg& operator=(const wire_msg&) = delete;

  /// Whole frame, header byte included.
  const std::uint8_t* data() const noexcept {
    return len_ > inline_capacity ? heap_ : inline_;
  }
  std::size_t size() const noexcept { return len_; }

  std::string_view type_name() const noexcept override { return "wire"; }
  std::size_t id_fields() const noexcept override { return 0; }

 private:
  static constexpr std::size_t inline_capacity = 32;

  std::uint32_t len_ = 0;
  union {
    std::uint8_t inline_[inline_capacity];
    std::uint8_t* heap_;
  };
};

}  // namespace asyncrd::sim

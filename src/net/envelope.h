// Service-mode vocabulary: the datagrams of the data plane, the records of
// the control streams, and the dg_state codec.
//
// Two planes, two carriers.  The data plane is alone on UDP; the control
// records travel on one reliable, ordered stream per discoveryd child
// (net::record_stream: loadgen's socketpair, which the child reads as its
// stdin), each behind a 4-byte length.  First-byte ranges stay disjoint:
//
//   0x81..0x8D  encoded wire frames (sim/wire.h: wire_bit | core tag) —
//               never appear as a datagram's first byte; they ride inside
//               dg_data envelopes;
//   0xE7/0xE8   ARQ envelopes (sim/reliable_link.h rl_data_tag/rl_ack_tag)
//               — the data plane;
//   0xC1..0xC9  control records (loadgen <-> discoveryd orchestration).
//
// Data plane (node -> node, via the owning processes' data sockets):
//
//   dg_data: [0xE7][varint src][varint dst][varint seq][wire frame...]
//   dg_ack:  [0xE8][varint src][varint dst][varint ack]
//
// src/dst are node ids; seq/ack are the ARQ channel sequence numbers.  The
// embedded wire frame is decoded into its struct (core::wire::decode) before
// the ARQ layer sees it, so a malformed or hostile datagram is counted and
// dropped at the door — it can cost a retransmit, never a crash.  Every
// datagram is data-plane traffic: a control tag on UDP is such a drop too.
//
// Control records (tag, then varint fields but dg_state's status and flags
// bytes; the stream names the child):
//
//   dg_hello:     [data port]             child -> loadgen, first record
//   dg_portmap:   [P][port * P]           loadgen -> child
//   dg_start:     []                      loadgen -> child
//   dg_status_req:[]                      loadgen -> child
//   dg_status:    [progress][outstanding][decode_errors]
//   dg_finalize:  []                      loadgen -> child
//   dg_state:     [node][status][flags][next][id_set done]
//                                         (put_state / read_state below)
//   dg_state_end: [total_messages][wire_frames][wire_bytes][decode_errors]
//   dg_stop:      []                      loadgen -> child
//
// A stream loses, duplicates and reorders nothing, so each record is sent
// once and a dg_finalize is answered by one dg_state per local node, then
// one dg_state_end.  Records come only from the other end of a child's own
// stream; a malformed one is a fault of that end, not hostile input.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/checker.h"
#include "sim/reliable_link.h"
#include "sim/wire.h"

namespace asyncrd::net {

// Data plane: the ARQ dispatch tags double as datagram tags.
inline constexpr std::uint8_t dg_data = sim::rl_data_tag;  // 0xE7
inline constexpr std::uint8_t dg_ack = sim::rl_ack_tag;    // 0xE8

// Control records.
inline constexpr std::uint8_t dg_hello = 0xC1;
inline constexpr std::uint8_t dg_portmap = 0xC2;
inline constexpr std::uint8_t dg_start = 0xC3;
inline constexpr std::uint8_t dg_status_req = 0xC4;
inline constexpr std::uint8_t dg_status = 0xC5;
inline constexpr std::uint8_t dg_finalize = 0xC6;
inline constexpr std::uint8_t dg_state = 0xC7;
inline constexpr std::uint8_t dg_state_end = 0xC8;
inline constexpr std::uint8_t dg_stop = 0xC9;

/// dg_state flag bits (member_state booleans, core/checker.h).
inline constexpr std::uint8_t state_flag_deferred = 0x01;
inline constexpr std::uint8_t state_flag_pending = 0x02;
inline constexpr std::uint8_t state_flag_more_empty = 0x04;
inline constexpr std::uint8_t state_flag_unaware_empty = 0x08;

/// Appends the dg_state record, tag included, that reports member `m`.
/// Precondition: `m.done` ascends without repeats (core::snapshot's does);
/// the decoder enforces it.
inline void put_state(std::vector<std::uint8_t>& out,
                      const core::member_state& m) {
  out.push_back(dg_state);
  sim::wire::put_varint(out, m.id);
  out.push_back(static_cast<std::uint8_t>(m.status));
  out.push_back(static_cast<std::uint8_t>(
      (m.has_deferred ? state_flag_deferred : 0) |
      (m.has_pending ? state_flag_pending : 0) |
      (m.more_empty ? state_flag_more_empty : 0) |
      (m.unaware_empty ? state_flag_unaware_empty : 0)));
  sim::wire::put_varint(out, m.next);
  sim::wire::put_id_set(out, m.done);
}

/// Decodes a dg_state body (the bytes after the tag) into `m`.  Throws
/// sim::wire::decode_error on what the reader and read_id_set reject
/// (truncation, a zero delta, trailing bytes), on an id past node_id's
/// range and on an unknown status.
inline void read_state(sim::wire::reader& r, core::member_state& m) {
  const auto id = [&r] {
    const std::uint64_t v = r.varint();
    if (v > std::numeric_limits<node_id>::max())
      throw sim::wire::decode_error("dg_state: id exceeds the id range");
    return static_cast<node_id>(v);
  };
  m.id = id();
  const std::uint8_t status = r.byte();
  if (status > static_cast<std::uint8_t>(core::status_t::terminated))
    throw sim::wire::decode_error("dg_state: unknown status");
  m.status = static_cast<core::status_t>(status);
  const std::uint8_t flags = r.byte();
  m.has_deferred = (flags & state_flag_deferred) != 0;
  m.has_pending = (flags & state_flag_pending) != 0;
  m.more_empty = (flags & state_flag_more_empty) != 0;
  m.unaware_empty = (flags & state_flag_unaware_empty) != 0;
  m.next = id();
  m.done.clear();
  sim::wire::read_id_set(r, m.done);
  r.expect_end();
}

}  // namespace asyncrd::net

// Datagram vocabulary for service mode: what the first byte of every UDP
// datagram means, and varint helpers for the headers that follow.
//
// Three disjoint first-byte ranges keep the planes unambiguous:
//
//   0x81..0x8D  encoded wire frames (sim/wire.h: wire_bit | core tag) —
//               never appear as a datagram's first byte; they ride inside
//               dg_data envelopes;
//   0xE7/0xE8   ARQ envelopes (sim/reliable_link.h rl_data_tag/rl_ack_tag)
//               — the data plane;
//   0xC1..0xC9  the control plane (loadgen <-> discoveryd orchestration).
//
// Data plane (node -> node, via the owning processes' data sockets):
//
//   dg_data: [0xE7][varint src][varint dst][varint seq][wire frame...]
//   dg_ack:  [0xE8][varint src][varint dst][varint ack]
//
// src/dst are node ids; seq/ack are the ARQ channel sequence numbers.  The
// embedded wire frame is decoded into its struct (core::wire::decode) before
// the ARQ layer sees it, so a malformed or hostile datagram is counted and
// dropped at the door — it can cost a retransmit, never a crash.
//
// Control plane (all varint fields, always over the loadgen's control
// socket endpoint, which discoveryd pins as the only trusted source):
//
//   dg_hello:     [proc]                  child -> loadgen, from the DATA
//                                         socket (recvfrom teaches loadgen
//                                         the child's data endpoint)
//   dg_portmap:   [P][port * P]           loadgen -> child
//   dg_start:     []                      loadgen -> child
//   dg_status_req:[]                      loadgen -> child
//   dg_status:    [proc][progress][outstanding][decode_errors]
//   dg_finalize:  [finalize_magic]        loadgen -> child
//   dg_state:     [proc][node][status][flags][next][id_set done]
//                                         (put_state / read_state below)
//   dg_state_end: [proc][total_messages][wire_frames][wire_bytes]
//                 [decode_errors][now]
//   dg_stop:      []                      loadgen -> child
//
// Every control message is idempotent (children re-send dg_hello until
// mapped, loadgen re-sends dg_finalize until dg_state_end arrives), so the
// control plane tolerates UDP loss without its own ARQ.
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

// Control plane.
inline constexpr std::uint8_t dg_hello = 0xC1;
inline constexpr std::uint8_t dg_portmap = 0xC2;
inline constexpr std::uint8_t dg_start = 0xC3;
inline constexpr std::uint8_t dg_status_req = 0xC4;
inline constexpr std::uint8_t dg_status = 0xC5;
inline constexpr std::uint8_t dg_finalize = 0xC6;
inline constexpr std::uint8_t dg_state = 0xC7;
inline constexpr std::uint8_t dg_state_end = 0xC8;
inline constexpr std::uint8_t dg_stop = 0xC9;

/// True for first bytes the control plane owns.
inline bool is_control_tag(std::uint8_t b) noexcept {
  return b >= dg_hello && b <= dg_stop;
}

/// Guards dg_finalize against a stray control-looking datagram that made it
/// past the endpoint check: finalization flushes state and is the one
/// control action worth double-locking.
inline constexpr std::uint64_t finalize_magic = 0x52'44'46'49'4Eull;  // "RDFIN"

/// dg_state flag bits (member_state booleans, core/checker.h).
inline constexpr std::uint8_t state_flag_deferred = 0x01;
inline constexpr std::uint8_t state_flag_pending = 0x02;
inline constexpr std::uint8_t state_flag_more_empty = 0x04;
inline constexpr std::uint8_t state_flag_unaware_empty = 0x08;

/// Appends the dg_state datagram, tag included, by which process `proc`
/// reports member `m`.  Precondition: `m.done` ascends without repeats
/// (core::snapshot's does); the decoder enforces it.
inline void put_state(std::vector<std::uint8_t>& out, std::uint64_t proc,
                      const core::member_state& m) {
  out.push_back(dg_state);
  sim::wire::put_varint(out, proc);
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

/// Decodes a dg_state body (the bytes after the tag) into `m` and returns
/// the reporting process's index.  Throws sim::wire::decode_error on what
/// the reader and read_id_set reject (truncation, a zero delta, trailing
/// bytes), on an id past node_id's range and on an unknown status.
inline std::uint64_t read_state(sim::wire::reader& r, core::member_state& m) {
  const auto id = [&r] {
    const std::uint64_t v = r.varint();
    if (v > std::numeric_limits<node_id>::max())
      throw sim::wire::decode_error("dg_state: id exceeds the id range");
    return static_cast<node_id>(v);
  };
  const std::uint64_t proc = r.varint();
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
  return proc;
}

}  // namespace asyncrd::net

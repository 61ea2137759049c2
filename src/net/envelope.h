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
//   dg_state_end: [proc][total_messages][wire_frames][wire_bytes]
//                 [decode_errors][now]
//   dg_stop:      []                      loadgen -> child
//
// Every control message is idempotent (children re-send dg_hello until
// mapped, loadgen re-sends dg_finalize until dg_state_end arrives), so the
// control plane tolerates UDP loss without its own ARQ.
#pragma once

#include <cstdint>

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

}  // namespace asyncrd::net

// The two sockets of service mode: a thin RAII wrapper over a non-blocking
// IPv4/UDP socket (the data plane), and a record stream over one end of a
// reliable byte stream (the control plane between loadgen and a child).
//
// Service mode (docs/DESIGN.md §11) runs the discovery engine over real
// datagrams instead of the simulator's calendar queue.  Everything here is
// deliberately minimal: bind to loopback, send a datagram, drain pending
// datagrams, poll for readability; frame records on a stream.  The
// protocol — ARQ envelopes, wire frames, the control records — lives
// above, in net/envelope.h and net/udp_transport.h; this file knows only
// bytes, endpoints and record lengths.
//
// Loss model: UDP gives us exactly the lossy/duplicating wire the
// fault_plan simulates, so the reliable-link ARQ (sim/reliable_link.h) runs
// unmodified on top.  A send that the kernel refuses (full socket buffer)
// is reported as `false` and treated by callers as a wire drop — the ARQ
// retransmit path recovers it, same as any other lost datagram.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace asyncrd::net {

/// IPv4 endpoint, host byte order.
struct endpoint {
  std::uint32_t ip = 0;
  std::uint16_t port = 0;
};

inline constexpr std::uint32_t loopback_ip = 0x7F00'0001;  // 127.0.0.1

inline endpoint loopback(std::uint16_t port) noexcept {
  return {loopback_ip, port};
}

/// Largest datagram the receive path accepts.  Well above any frame the
/// protocol emits for the cluster sizes service mode targets; a datagram
/// the kernel truncates past this is malformed by definition and the
/// caller counts it as a decode drop.
inline constexpr std::size_t max_datagram = 65507;

class udp_socket {
 public:
  /// Creates an unbound non-blocking socket; throws std::runtime_error if
  /// the kernel refuses (fd exhaustion).
  udp_socket();
  ~udp_socket();

  udp_socket(const udp_socket&) = delete;
  udp_socket& operator=(const udp_socket&) = delete;

  /// Binds to 127.0.0.1:port (port 0 = kernel-assigned ephemeral port).
  /// Throws std::runtime_error on failure.
  void bind_loopback(std::uint16_t port = 0);

  /// The bound port (0 before bind_loopback).
  std::uint16_t port() const noexcept { return port_; }
  int fd() const noexcept { return fd_; }

  /// True if the kernel accepted the datagram; false on EWOULDBLOCK or any
  /// transient refusal (the caller treats it as a wire drop).
  bool send_to(const endpoint& to, const std::uint8_t* data, std::size_t len);

  /// Receives one pending datagram into buf.  Returns its length (possibly
  /// 0 for an empty datagram), or -1 when nothing is pending.  A datagram
  /// longer than cap is consumed and returned truncated with length cap +
  /// 1 sentinel semantics avoided: callers pass cap >= max_datagram, so
  /// truncation only happens for datagrams no valid peer sends.  The
  /// sender's address is not reported: every datagram is judged by its
  /// bytes alone.
  std::ptrdiff_t recv(std::uint8_t* buf, std::size_t cap);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Blocks until fd is readable or timeout_ms elapses.  Returns true when
/// readable, false on timeout.  timeout_ms == 0 polls without blocking.
bool wait_readable(int fd, int timeout_ms);

/// Whole records over one end of a reliable, ordered byte stream (in
/// service mode, a socketpair end: discoveryd reads its end as stdin).
/// Each record travels behind a 4-byte little-endian length, so a record
/// has no size limit and a stream loses nothing: a read that ends the
/// stream means the peer has gone.  Does not own the descriptor.
class record_stream {
 public:
  explicit record_stream(int fd = -1) noexcept : fd_(fd) {}

  int fd() const noexcept { return fd_; }

  /// Writes `rec` behind its length, blocking until the kernel has taken
  /// all of it.  False when the peer has gone (no SIGPIPE) or the
  /// descriptor is no stream.
  bool send(const std::vector<std::uint8_t>& rec);

  /// Waits up to timeout_ms (-1: no limit) for bytes and buffers what is
  /// pending.  False at the end of the stream or on a read error.
  bool fill(int timeout_ms);

  /// Moves the next whole buffered record into `rec`; false if none is.
  bool next(std::vector<std::uint8_t>& rec);

 private:
  int fd_;
  std::vector<std::uint8_t> out_;  ///< length + record being written
  std::vector<std::uint8_t> in_;   ///< bytes read, not yet returned
  std::size_t head_ = 0;           ///< start of the first unreturned record
};

}  // namespace asyncrd::net

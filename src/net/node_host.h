// One process's share of a service-mode discovery cluster.
//
// A node_host owns a real sim::network (unit-delay scheduler, no local
// fault plan) hosting the nodes this process is responsible for — node v
// belongs to process v mod P — plus the machinery that splices that
// network into a UDP cluster:
//
//   * a remote_gateway implementation: application sends whose destination
//     is not hosted here exit network::send_internal into remote_send,
//     which encodes the message into its wire frame (core::wire::encode)
//     and hands the frame to a *second* reliable_link_layer instance — the
//     UDP-side ARQ — whose transport is net/udp_transport.h over this
//     host's data socket;
//   * the inbound path: udp_transport decodes each arriving frame back into
//     its struct, the ARQ releases the messages in FIFO order, and the
//     release callback re-enters the simulator via network::inject_remote,
//     which runs one delivery activation exactly like a local delivery
//     (observers, stats, tracing all see it);
//   * pump(): advances the wall-clock tick timers (retransmits), drains
//     every pending datagram from the socket, and runs the simulator to
//     quiescence, emitting further remote sends as it goes.
//
// All three algorithm variants run unmodified: every process constructs
// the identical full graph from the shared spec, instantiates only its own
// nodes (with their true E0 out-neighborhoods and, for variant::bounded,
// their true component sizes), and the engine cannot tell a remote
// neighbor from a local one.
//
// Every datagram on the data socket is data-plane traffic: whatever fails
// the grammar — a control tag included — is a counted decode drop.
// Orchestration is not handled here: discoveryd speaks the control records
// of net/envelope.h on its own stream and calls pump() between them, while
// in-process tests and perfbench drive hosts directly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/messages.h"
#include "core/node.h"
#include "graph/digraph.h"
#include "net/clock.h"
#include "net/udp.h"
#include "net/udp_transport.h"
#include "sim/network.h"
#include "sim/reliable_link.h"
#include "sim/scheduler.h"
#include "telemetry/report.h"

namespace asyncrd::net {

class node_host {
 public:
  /// Builds this process's shard of the cluster: `proc` of `procs` total,
  /// hosting every node v of `g` with v % procs == proc.  The graph and
  /// config must outlive the host.  Binds the data socket to an ephemeral
  /// loopback port (port()).
  node_host(const graph::digraph& g, const core::config& cfg,
            std::size_t proc, std::size_t procs, std::uint64_t seed);

  node_host(const node_host&) = delete;
  node_host& operator=(const node_host&) = delete;

  std::size_t proc() const noexcept { return proc_; }
  std::size_t procs() const noexcept { return procs_; }
  std::uint16_t port() const noexcept { return sock_.port(); }
  int fd() const noexcept { return sock_.fd(); }
  bool hosts(node_id v) const noexcept {
    return static_cast<std::size_t>(v) % procs_ == proc_;
  }
  const std::vector<node_id>& local_nodes() const noexcept { return local_; }

  /// Installs the node -> data-port map (index p owns port peer_ports[p]).
  void set_peers(std::vector<std::uint16_t> peer_ports);
  /// Test hooks, forwarded to the transport.
  udp_transport& transport() noexcept { return transport_; }
  const sim::reliable_link_layer& arq() const noexcept { return arq_; }

  /// Wakes every local node and drains the first burst of sends.
  /// Requires set_peers() first.
  void start();
  bool started() const noexcept { return started_; }

  /// One service iteration: advance retransmit timers to the wall clock,
  /// drain pending datagrams, run the simulator to quiescence.
  void pump();

  /// Milliseconds until the next retransmit deadline, capped at max_ms: how
  /// long a caller may sleep on fd() before the next pump() is due.
  int wait_ms(int max_ms) const;

  /// Sleeps until the socket is readable, the next retransmit deadline, or
  /// max_wait_ms — whichever is first — then pump()s.
  void poll_once(int max_wait_ms);

  /// Monotone activity counter (app deliveries + datagrams in): stalls
  /// show as two equal reads across a convergence-poll round trip.
  std::uint64_t progress() const noexcept;
  /// Unfinished work visible from this process: unacked ARQ envelopes plus
  /// undelivered local messages.  Zero everywhere <=> converged.
  std::uint64_t outstanding() const noexcept;
  std::uint64_t decode_errors() const noexcept {
    return transport_.stats().decode_errors;
  }

  const core::node& at(node_id v) const;
  sim::network& net() noexcept { return net_; }

  /// Snapshot of this shard for the run report (same schema as sim runs;
  /// json_check-valid).  `completed` is the caller's verdict.
  telemetry::run_report report(bool completed) const;

 private:
  class gateway final : public sim::remote_gateway {
   public:
    explicit gateway(node_host& h) noexcept : host_(&h) {}
    std::size_t remote_send(node_id from, node_id to,
                            sim::message_ptr m) override;

   private:
    node_host* host_;
  };

  void on_deliver_remote(node_id to, node_id from, const sim::message_ptr& m);

  const graph::digraph* g_;
  const core::config* cfg_;
  std::size_t proc_;
  std::size_t procs_;
  std::uint64_t seed_;

  tick_clock clock_;
  udp_socket sock_;
  udp_transport transport_;
  sim::reliable_link_layer arq_;  ///< UDP-side ARQ (go-back-N over datagrams)
  gateway gateway_;

  sim::unit_delay_scheduler sched_;
  sim::network net_;

  std::vector<node_id> local_;
  std::vector<core::node*> nodes_;  ///< parallel to local_; owned by net_
  std::vector<std::uint16_t> peer_ports_;
  std::vector<std::uint8_t> scratch_;  ///< frame encode scratch (gateway)
  std::vector<std::uint8_t> rxbuf_;
  std::uint64_t events_ = 0;  ///< sim events processed across pumps
  bool started_ = false;
};

}  // namespace asyncrd::net

// sim::transport driver over a real UDP socket (service mode).
//
// This is the second implementation of the transport seam carved out in
// sim/transport.h: sim::network drives the reliable-link ARQ from the
// calendar queue in simulation; udp_transport drives the *same adapter
// object, byte for byte the same state machine* from a non-blocking socket
// and a wall-clock tick source.
//
//   * transport_send serializes the ARQ envelope (rl_data with its inner
//     wire frame, or rl_ack) into a datagram and sendto()s it at the
//     destination node's owning process (the route callback).
//   * on_datagram parses an arriving data-plane datagram, decodes the
//     embedded wire frame into its struct (core::wire::decode) *before*
//     the ARQ sees it, wraps it in the envelope type, and feeds
//     adapter->transport_deliver.  Anything malformed — truncated varints,
//     an unknown tag, a bad id set, a destination this process does not
//     host — is counted in stats().decode_errors and dropped; a garbage
//     datagram can cost a retransmit, never a crash.
//   * Timers: schedule_adapter_timer parks (deadline, key) in a min-heap;
//     advance_to(wall) pops due timers, pinning now() to each popped
//     deadline exactly while its callback runs.  The ARQ detects orphaned
//     timers by `now() == deadline` equality (reliable_link.cpp), so that
//     pin is load-bearing: a live timer firing with now() past its
//     deadline would be mistaken for an orphan and the channel would stop
//     retransmitting.  now() therefore only ever advances inside
//     advance_to — every pending deadline is strictly above the current
//     wall when the loop exits, so the final now_ = wall never overtakes
//     a live timer.
//
// Fault injection: real loopback rarely drops, so the conformance tests
// inject drop/duplicate software faults at the send choke point (mirroring
// the simulator's fault_plan semantics: rule per transmission, seeded rng)
// plus a blackhole toggle for outage-recovery scenarios.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "net/udp.h"
#include "sim/network.h"
#include "sim/transport.h"

namespace asyncrd::net {

class udp_transport final : public sim::transport {
 public:
  /// Software wire faults applied per transmission at the send choke point.
  struct fault_profile {
    double drop = 0.0;       ///< P(datagram silently discarded)
    double duplicate = 0.0;  ///< P(datagram sent twice)
    std::uint64_t seed = 1;
    bool enabled() const noexcept { return drop > 0.0 || duplicate > 0.0; }
  };

  struct counters {
    std::uint64_t datagrams_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t datagrams_received = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t decode_errors = 0;   ///< malformed/misrouted, dropped
    std::uint64_t fault_drops = 0;     ///< injector + blackhole discards
    std::uint64_t fault_duplicates = 0;
    std::uint64_t send_failures = 0;   ///< kernel refused; counts as a drop
    std::uint64_t timer_fires = 0;
  };

  using route_fn = std::function<endpoint(node_id)>;
  using deliver_fn =
      std::function<void(node_id to, node_id from, const sim::message_ptr&)>;
  using local_fn = std::function<bool(node_id)>;

  udp_transport(udp_socket& sock, std::uint64_t seed)
      : sock_(&sock), seed_(seed) {}

  void set_adapter(sim::link_adapter* a) noexcept { adapter_ = a; }
  /// Destination node -> owning process's data endpoint.
  void set_route(route_fn r) { route_ = std::move(r); }
  /// Sink for in-order application messages released by the ARQ.
  void set_deliver(deliver_fn f) { deliver_ = std::move(f); }
  /// True iff this process hosts `id`; data for other nodes is a misroute
  /// and counts as a decode drop.
  void set_local(local_fn f) { local_ = std::move(f); }
  void set_faults(const fault_profile& f) {
    faults_ = f;
    fault_rng_ = rng(f.seed);
  }
  /// While on, every outgoing datagram is discarded (outage injection).
  void set_blackhole(bool on) noexcept { blackhole_ = on; }

  // --- sim::transport ----------------------------------------------------
  sim::sim_time now() const noexcept override { return now_; }
  void transport_send(node_id from, node_id to, sim::message_ptr m) override;
  void app_deliver(node_id to, node_id from,
                   const sim::message_ptr& m) override {
    deliver_(to, from, m);
  }
  void schedule_adapter_timer(sim::sim_time delay,
                              std::uint64_t key) override;
  std::uint64_t link_seed() const noexcept override { return seed_; }

  // --- driver surface ----------------------------------------------------

  /// Fires every timer with deadline <= wall (now() pinned to each exact
  /// deadline during its callback), then advances now() to wall.
  void advance_to(sim::sim_time wall);

  /// Parses one received data-plane datagram.  Returns true if it was
  /// structurally valid and handed to the ARQ; false if it was counted as
  /// a decode drop.
  bool on_datagram(const std::uint8_t* data, std::size_t len);

  /// Earliest pending timer deadline, or sim::sim_time(-1) when none — the
  /// poll loop sizes its sleep with this.
  sim::sim_time next_deadline() const noexcept {
    return timers_.empty() ? static_cast<sim::sim_time>(-1)
                           : timers_.top().deadline;
  }

  const counters& stats() const noexcept { return counters_; }

 private:
  struct timer_ev {
    sim::sim_time deadline;
    std::uint64_t key;
    std::uint64_t tie;  ///< arm order; makes equal-deadline pops FIFO
    bool operator>(const timer_ev& o) const noexcept {
      return deadline != o.deadline ? deadline > o.deadline : tie > o.tie;
    }
  };

  void emit(node_id to);

  udp_socket* sock_;
  std::uint64_t seed_;
  sim::link_adapter* adapter_ = nullptr;
  route_fn route_;
  deliver_fn deliver_;
  local_fn local_;

  sim::sim_time now_ = 0;
  std::priority_queue<timer_ev, std::vector<timer_ev>, std::greater<>>
      timers_;
  std::uint64_t timer_ties_ = 0;

  fault_profile faults_;
  rng fault_rng_{1};
  bool blackhole_ = false;

  std::vector<std::uint8_t> buf_;  ///< scratch datagram being serialized
  counters counters_;
};

}  // namespace asyncrd::net

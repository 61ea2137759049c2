// Reliable-delivery adapter: rebuilds the paper's reliable-FIFO contract
// (§1.2) on top of a lossy chaos transport (sim/network.h fault_plan).
//
// Classic ARQ, specialized to the simulator's structural guarantees:
//   * sender side: every application message gets a per-ordered-channel
//     sequence number and rides in an rl.data envelope; unacked envelopes
//     are retransmitted wholesale when a timer fires, with exponential
//     backoff (reset on ack progress) capped at rto_max;
//   * receiver side: cumulative acks (next expected seq), duplicate
//     suppression, and an out-of-order buffer — gaps arise only from drops
//     and duplicates arise only from retransmission/duplication, because
//     the underlying wire is still FIFO per channel (structural);
//   * in-order release: buffered messages are handed to the destination
//     process via network::app_deliver inside the envelope's delivery
//     activation, so causal tracing and observer semantics stay coherent.
//
// The algorithms above run unmodified: context::send detours through
// app_send, and on_message sees exactly the sequence of application
// messages the reliable model promises.  Observers and sim::stats account
// the transport level (envelopes, retransmissions, acks) — the overhead
// bench_chaos_overhead measures.
//
// Termination: a timer firing with nothing unacked does not re-arm, acks
// are triggered by (re)transmitted data only, and every envelope is
// eventually delivered with probability 1 under drop < 1.  Retransmit
// deadlines carry deterministic per-channel jitter: without it, a capped
// rto that is a multiple of the outage period phase-locks every retry
// into the blackout window and the channel livelocks.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/flat_hash.h"
#include "common/ids.h"
#include "common/rng.h"
#include "sim/message.h"
#include "sim/network.h"

namespace asyncrd::sim {

/// Dispatch tags for the reliable-link envelopes.  Chosen far above the
/// core vocabulary (core/messages.h uses 1..13) so a process handed a stray
/// envelope would treat it as foreign rather than misparse it.
inline constexpr std::uint8_t rl_data_tag = 0xE7;
inline constexpr std::uint8_t rl_ack_tag = 0xE8;

/// Envelope carrying one application message plus its channel sequence
/// number.  Bit accounting: the inner message's payload plus one integer
/// field for the sequence number — the per-message reliability overhead.
struct rl_data_msg final : message {
  rl_data_msg(message_ptr m, std::uint64_t s)
      : message(rl_data_tag), inner(std::move(m)), seq(s) {}
  message_ptr inner;
  std::uint64_t seq;

  std::string_view type_name() const noexcept override { return "rl.data"; }
  std::size_t id_fields() const noexcept override {
    return inner->id_fields();
  }
  std::size_t int_fields() const noexcept override {
    return inner->int_fields() + 1;
  }
  std::size_t flag_bits() const noexcept override {
    return inner->flag_bits();
  }
};

/// Cumulative acknowledgement: "I have received everything below `ack` in
/// order".  Sent for every arriving rl.data (including duplicates, which is
/// what lets a sender whose acks were lost make progress).
struct rl_ack_msg final : message {
  explicit rl_ack_msg(std::uint64_t a) : message(rl_ack_tag), ack(a) {}
  std::uint64_t ack;

  std::string_view type_name() const noexcept override { return "rl.ack"; }
  std::size_t id_fields() const noexcept override { return 0; }
  std::size_t int_fields() const noexcept override { return 1; }
};

struct reliable_link_config {
  /// First retransmit timeout.  Should comfortably exceed the scheduler's
  /// typical round trip (data delay + ack delay), or healthy traffic
  /// triggers spurious retransmissions — the default covers a full
  /// random_delay_scheduler round trip (2 x 64) with room to spare.
  sim_time rto_initial = 256;
  /// Exponential backoff cap.
  sim_time rto_max = 16384;
  /// Jitter retransmit deadlines (rto + uniform[0, rto/2]).  On by default
  /// — disabling it re-creates the phase-locked-retransmit livelock (a
  /// capped rto resonating with a periodic outage window) and exists so
  /// tests can inject that livelock for the stall watchdog to catch.
  bool retransmit_jitter = true;
};

/// Adapter-level accounting (chaos counters in the run report).
struct reliable_link_stats {
  std::uint64_t data_sent = 0;        ///< first transmissions of envelopes
  std::uint64_t retransmits = 0;      ///< envelopes re-put on the wire
  std::uint64_t acks_sent = 0;        ///< cumulative acks emitted
  std::uint64_t dup_suppressed = 0;   ///< duplicate envelopes discarded
  std::uint64_t buffered_ooo = 0;     ///< envelopes parked out of order
  std::uint64_t timer_fires = 0;      ///< retransmit timers that fired live
  std::uint64_t rto_backoffs = 0;     ///< times the timeout was doubled
  std::uint64_t max_rto = 0;          ///< largest timeout reached
};

class reliable_link_layer final : public link_adapter {
 public:
  /// The adapter talks to its driver exclusively through the transport seam
  /// (sim/transport.h): sim::network in simulation, net::udp_transport over
  /// real sockets.  Same ARQ state machine, same jitter streams either way.
  explicit reliable_link_layer(transport& net, reliable_link_config cfg = {})
      : net_(&net), cfg_(cfg) {}

  reliable_link_layer(const reliable_link_layer&) = delete;
  reliable_link_layer& operator=(const reliable_link_layer&) = delete;

  reliable_link_stats stats() const noexcept { return stats_; }
  const reliable_link_config& config() const noexcept { return cfg_; }

  /// True iff every sent envelope has been cumulatively acked (the protocol
  /// is drained; asserted by tests after a completed run).
  bool all_acked() const noexcept;

  /// Total un-acked envelopes across all channels — the ARQ retransmit
  /// backlog.  Maintained incrementally (O(1) read) because health probes
  /// read it every sample: nonzero outstanding with an empty wire is
  /// exactly the pure-livelock signature the stall watchdog keys on.
  std::uint64_t outstanding() const noexcept { return outstanding_; }

  /// Ordered channels with at least one un-acked envelope (the count of
  /// outstanding ranges).  Incrementally maintained like outstanding().
  std::uint64_t backlogged_channels() const noexcept { return backlogged_; }

  /// Heap bytes the per-channel tables hold (common/heap.h): both
  /// indexes, the sender and receiver records, the unacked windows and the
  /// out-of-order buffers (the envelopes themselves live in the message
  /// pool).  For reports.
  std::size_t memory_bytes() const noexcept;

  // link_adapter interface (called by the network).
  void app_send(node_id from, node_id to, message_ptr m) override;
  void transport_deliver(node_id from, node_id to,
                         const message_ptr& m) override;
  void on_timer(std::uint64_t key) override;

 private:
  /// Sender half of one ordered channel (from, to).
  struct sender_state {
    node_id from = invalid_node;
    node_id to = invalid_node;
    std::uint64_t next_seq = 0;  ///< next sequence number to assign
    std::uint64_t base = 0;      ///< lowest unacked sequence number
    /// Envelopes sent but not yet cumulatively acked, in seq order.  The
    /// window is a few envelopes, so erasing acked ones from the front is
    /// cheap, and a vector holds just the window where a std::deque
    /// allocates a 512-byte chunk and its map for even one envelope.
    std::vector<message_ptr> unacked;
    sim_time rto = 0;            ///< current retransmit timeout
    /// A pending timer is live iff it fires at exactly this deadline; acks
    /// and backoffs move the deadline, orphaning superseded timer events.
    sim_time deadline = 0;
    /// Deterministic jitter stream for retransmit deadlines (seeded from
    /// the fault plan + channel endpoints, so runs replay bit for bit).
    rng jitter{0};
  };

  /// Receiver half of one ordered channel (from, to).
  struct receiver_state {
    std::uint64_t expected = 0;  ///< next in-order sequence number
    /// Out-of-order envelopes parked until the gap below them fills.
    /// std::map: drained in seq order, stays tiny (bounded by drop bursts).
    std::map<std::uint64_t, message_ptr> buffer;
  };

  sender_state& sender_for(node_id from, node_id to);
  receiver_state& receiver_for(node_id from, node_id to);
  void arm_timer(std::uint32_t index);
  void handle_data(node_id from, node_id to, const rl_data_msg& env);
  void handle_ack(node_id from, node_id to, const rl_ack_msg& ack);

  static std::uint64_t pack(node_id a, node_id b) noexcept {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  transport* net_;
  reliable_link_config cfg_;
  reliable_link_stats stats_;
  std::uint64_t outstanding_ = 0;  ///< sum of unacked.size() over senders
  std::uint64_t backlogged_ = 0;   ///< senders with unacked non-empty
  flat_u64_map sender_index_;    ///< pack(from, to) -> senders_ index
  std::vector<sender_state> senders_;
  flat_u64_map receiver_index_;  ///< pack(from, to) -> receivers_ index
  std::vector<receiver_state> receivers_;
};

}  // namespace asyncrd::sim

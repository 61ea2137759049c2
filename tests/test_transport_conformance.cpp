// Transport conformance battery: the reliable-link ARQ must rebuild the
// paper's reliable-FIFO contract (§1.2) over EVERY driver that implements
// the sim::transport seam.  The same assertions run against both
// implementations:
//
//   * sim::network with a seeded fault_plan (virtual time, deterministic
//     chaos) — the configuration every chaos test and bench runs;
//   * net::udp_transport over two real loopback sockets (wall-clock tick
//     timers, software fault injection) — the service-mode configuration
//     (src/net/node_host.h) with the discovery engine removed, so a
//     conformance failure points at the transport, not the algorithm.
//
// Battery: in-order release under drops + duplicates (both directions on a
// crossing channel pair), duplicate suppression accounting, recovery after
// a total outage/blackhole, and drained-protocol stats (all_acked, zero
// outstanding).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/messages.h"
#include "net/clock.h"
#include "net/udp.h"
#include "net/udp_transport.h"
#include "sim/network.h"
#include "sim/reliable_link.h"
#include "sim/scheduler.h"
#include "sim/wire.h"

namespace asyncrd {
namespace {

/// Both harnesses carry core::search_msg messages whose `initiator` field
/// is the test's sequence value.  The sim driver delivers the struct it was
/// given; the UDP driver delivers the struct it decoded from the frame.
std::uint64_t value_of(const sim::message& m) {
  if (m.dispatch_tag() != core::tag_of(core::msg_kind::search)) {
    ADD_FAILURE() << "delivered a " << m.type_name() << ", not a search";
    return ~std::uint64_t{0};
  }
  return static_cast<const core::search_msg&>(m).initiator;
}

sim::message_ptr test_payload(std::uint64_t value) {
  return sim::make_message<core::search_msg>(static_cast<node_id>(value), 1,
                                             0, false);
}

using received_log = std::vector<std::pair<node_id, std::uint64_t>>;

// ---------------------------------------------------------------------------
// Harness 1: simulator network + fault plan
// ---------------------------------------------------------------------------

class sink_process final : public sim::process {
 public:
  explicit sink_process(received_log& log) : log_(&log) {}
  void on_wake(sim::context&) override {}
  void on_message(sim::context&, node_id from,
                  const sim::message_ptr& m) override {
    log_->emplace_back(from, value_of(*m));
  }

 private:
  received_log* log_;
};

class sim_harness {
 public:
  explicit sim_harness(const sim::fault_plan& plan)
      : net_(sched_), arq_(net_) {
    net_.add_node(0, std::make_unique<sink_process>(at_[0]));
    net_.add_node(1, std::make_unique<sink_process>(at_[1]));
    net_.set_fault_plan(plan);
    net_.set_link_adapter(&arq_);
    net_.wake(0);
    net_.wake(1);
    net_.run_to_quiescence();
  }

  void send(node_id from, node_id to, std::uint64_t value) {
    arq_.app_send(from, to, test_payload(value));
  }

  /// Virtual time: one run() drains everything, retransmit timers included
  /// (a timer firing with nothing unacked does not re-arm).
  bool drive() {
    net_.run();
    return arq_.all_acked();
  }

  const received_log& received(node_id at) const { return at_[at]; }
  sim::reliable_link_stats stats() const { return arq_.stats(); }
  const sim::reliable_link_layer& arq() const { return arq_; }

 private:
  sim::unit_delay_scheduler sched_;
  sim::network net_;
  sim::reliable_link_layer arq_;
  received_log at_[2];
};

// ---------------------------------------------------------------------------
// Harness 2: two UDP loopback endpoints, manually pumped
// ---------------------------------------------------------------------------

class udp_harness {
 public:
  explicit udp_harness(const net::udp_transport::fault_profile& faults) {
    for (int side = 0; side < 2; ++side) {
      sock_[side].bind_loopback();
      tp_[side].emplace(sock_[side], /*seed=*/7);
      arq_[side].emplace(*tp_[side]);
    }
    for (int side = 0; side < 2; ++side) {
      const int other = 1 - side;
      tp_[side]->set_adapter(&*arq_[side]);
      tp_[side]->set_local(
          [side](node_id v) { return v == static_cast<node_id>(side); });
      tp_[side]->set_route([this, other](node_id) {
        return net::loopback(sock_[other].port());
      });
      tp_[side]->set_deliver(
          [this, side](node_id, node_id from, const sim::message_ptr& m) {
            at_[side].emplace_back(from, value_of(*m));
          });
      tp_[side]->set_faults(faults);
    }
  }

  /// Sends ride as real wire frames — the UDP data plane only transports
  /// encoded datagrams (net/envelope.h), exactly like service mode.
  void send(node_id from, node_id to, std::uint64_t value) {
    std::vector<std::uint8_t> frame;
    core::wire::encode(*test_payload(value), frame);
    arq_[from]->app_send(
        from, to, sim::make_message<sim::wire_msg>(frame.data(), frame.size()));
  }

  void pump() {
    for (int side = 0; side < 2; ++side) {
      tp_[side]->advance_to(clock_.ticks());
      for (;;) {
        const std::ptrdiff_t got = sock_[side].recv(rx_, sizeof(rx_));
        if (got < 0) break;
        tp_[side]->on_datagram(rx_, static_cast<std::size_t>(got));
      }
    }
  }

  /// Wall clock: pump both endpoints until the protocol drains or 30s pass
  /// (generous; a healthy run drains in well under a second).
  bool drive() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      pump();
      if (arq_[0]->all_acked() && arq_[1]->all_acked()) return true;
      net::wait_readable(sock_[0].fd(), 2);
    }
    return false;
  }

  /// Drives for a fixed wall-clock window regardless of protocol state
  /// (blackhole phases, where all_acked can not become true).
  void drive_for_ms(int ms) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (std::chrono::steady_clock::now() < deadline) {
      pump();
      net::wait_readable(sock_[0].fd(), 2);
    }
  }

  void set_blackhole(node_id at, bool on) { tp_[at]->set_blackhole(on); }

  const received_log& received(node_id at) const { return at_[at]; }
  sim::reliable_link_stats stats() const {
    sim::reliable_link_stats sum = arq_[0]->stats();
    const sim::reliable_link_stats b = arq_[1]->stats();
    sum.data_sent += b.data_sent;
    sum.retransmits += b.retransmits;
    sum.acks_sent += b.acks_sent;
    sum.dup_suppressed += b.dup_suppressed;
    sum.buffered_ooo += b.buffered_ooo;
    sum.timer_fires += b.timer_fires;
    return sum;
  }
  const net::udp_transport& transport(node_id at) const { return *tp_[at]; }
  std::uint64_t outstanding() const {
    return arq_[0]->outstanding() + arq_[1]->outstanding();
  }

 private:
  net::tick_clock clock_;
  net::udp_socket sock_[2];
  std::optional<net::udp_transport> tp_[2];
  std::optional<sim::reliable_link_layer> arq_[2];
  received_log at_[2];
  std::uint8_t rx_[net::max_datagram];
};

// ---------------------------------------------------------------------------
// The battery (shared assertions)
// ---------------------------------------------------------------------------

/// Crossing bursts: 0 -> 1 values [0, fwd) and 1 -> 0 values [0, rev), then
/// drive to drain and require exact in-order release on both sides.
template <typename Harness>
void run_fifo_battery(Harness& h, std::uint64_t fwd, std::uint64_t rev) {
  for (std::uint64_t i = 0; i < fwd; ++i) h.send(0, 1, i);
  for (std::uint64_t i = 0; i < rev; ++i) h.send(1, 0, i);
  ASSERT_TRUE(h.drive()) << "protocol failed to drain";

  ASSERT_EQ(h.received(1).size(), fwd);
  for (std::uint64_t i = 0; i < fwd; ++i) {
    EXPECT_EQ(h.received(1)[i].first, 0u);
    EXPECT_EQ(h.received(1)[i].second, i) << "out of order at " << i;
  }
  ASSERT_EQ(h.received(0).size(), rev);
  for (std::uint64_t i = 0; i < rev; ++i) {
    EXPECT_EQ(h.received(0)[i].first, 1u);
    EXPECT_EQ(h.received(0)[i].second, i) << "out of order at " << i;
  }

  const sim::reliable_link_stats st = h.stats();
  EXPECT_EQ(st.data_sent, fwd + rev);
  EXPECT_GT(st.acks_sent, 0u);
}

TEST(TransportConformance, SimCleanLinkFifo) {
  sim_harness h(sim::fault_plan{});
  run_fifo_battery(h, 64, 48);
  // A clean virtual-time link never times out: retransmits would mean the
  // RTO is mis-tuned against the scheduler's round trip.
  EXPECT_EQ(h.stats().retransmits, 0u);
  EXPECT_EQ(h.stats().dup_suppressed, 0u);
}

TEST(TransportConformance, UdpCleanLinkFifo) {
  udp_harness h(net::udp_transport::fault_profile{});
  run_fifo_battery(h, 64, 48);
  EXPECT_EQ(h.outstanding(), 0u);
  EXPECT_GE(h.transport(0).stats().datagrams_sent, 64u);
  EXPECT_EQ(h.transport(0).stats().decode_errors, 0u);
  EXPECT_EQ(h.transport(1).stats().decode_errors, 0u);
}

TEST(TransportConformance, SimFifoUnderDropAndDuplicate) {
  sim::fault_plan plan;
  plan.seed = 11;
  plan.drop = 0.25;
  plan.duplicate = 0.25;
  sim_harness h(plan);
  run_fifo_battery(h, 80, 60);
  EXPECT_GT(h.stats().retransmits, 0u);    // drops force timeouts
  EXPECT_GT(h.stats().dup_suppressed, 0u); // duplicates are discarded
}

TEST(TransportConformance, UdpFifoUnderDropAndDuplicate) {
  net::udp_transport::fault_profile faults;
  faults.seed = 11;
  faults.drop = 0.25;
  faults.duplicate = 0.25;
  udp_harness h(faults);
  run_fifo_battery(h, 80, 60);
  EXPECT_GT(h.stats().retransmits, 0u);
  EXPECT_GT(h.stats().dup_suppressed, 0u);
  EXPECT_GT(h.transport(0).stats().fault_drops +
                h.transport(1).stats().fault_drops,
            0u);
  EXPECT_EQ(h.outstanding(), 0u);
}

TEST(TransportConformance, SimRecoversFromLinkOutages) {
  // Short periodic blackouts on every link: transmissions inside a window
  // are lost wholesale; retransmit backoff + jitter must ride them out.
  sim::fault_plan plan;
  plan.seed = 3;
  plan.outage_period = 64;
  plan.outage_duration = 16;
  sim_harness h(plan);
  run_fifo_battery(h, 50, 50);
}

TEST(TransportConformance, UdpRecoversFromBlackhole) {
  udp_harness h(net::udp_transport::fault_profile{});

  // Total outage: nothing side 0 puts on the wire (initial transmissions
  // and retransmits alike) leaves the process.  The blackhole must be up
  // before the sends — app_send puts the first copy on the socket
  // synchronously.
  h.set_blackhole(0, true);
  for (std::uint64_t i = 0; i < 20; ++i) h.send(0, 1, i);
  h.drive_for_ms(120);
  EXPECT_TRUE(h.received(1).empty());
  EXPECT_EQ(h.outstanding(), 20u);
  EXPECT_GT(h.transport(0).stats().fault_drops, 0u);

  // Outage ends; the pending retransmit timers re-offer every envelope.
  h.set_blackhole(0, false);
  ASSERT_TRUE(h.drive());
  ASSERT_EQ(h.received(1).size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i)
    EXPECT_EQ(h.received(1)[i].second, i);
  EXPECT_GT(h.stats().retransmits, 0u);
  EXPECT_EQ(h.outstanding(), 0u);
}

TEST(TransportConformance, UdpGarbageDatagramsAreCountedDrops) {
  udp_harness h(net::udp_transport::fault_profile{});
  for (std::uint64_t i = 0; i < 10; ++i) h.send(0, 1, i);
  ASSERT_TRUE(h.drive());

  // Hand the receiving transport a corpus of malformed datagrams directly:
  // every one must be rejected-and-counted, and the drained protocol state
  // must be untouched.
  const std::vector<std::vector<std::uint8_t>> corpus = {
      {},                              // empty
      {0x00},                          // unknown tag
      {0xE7},                          // data envelope, no fields
      {0xE7, 0x00, 0x01, 0x00},        // data for us, empty frame
      {0xE7, 0x00, 0x01, 0x00, 0x7F},  // data for us, frame w/o wire bit
      {0xE7, 0x01, 0x00, 0x00, 0x81},  // data for a node we do not host
      {0xE8, 0x01},                    // truncated ack
      {0xFF, 0xFF, 0xFF},              // noise
  };
  auto& tp = const_cast<net::udp_transport&>(h.transport(1));
  for (const auto& d : corpus)
    EXPECT_FALSE(tp.on_datagram(d.data(), d.size()));
  EXPECT_EQ(h.transport(1).stats().decode_errors, corpus.size());
  EXPECT_EQ(h.received(1).size(), 10u);
  EXPECT_EQ(h.outstanding(), 0u);
}

}  // namespace
}  // namespace asyncrd

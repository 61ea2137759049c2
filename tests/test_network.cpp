// Simulator substrate tests: FIFO discipline, wake semantics, sender
// blocking, quiescence hooks, accounting plumbing.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/runner.h"
#include "graph/topology.h"
#include "sim/flight_recorder.h"
#include "sim/network.h"

namespace asyncrd {
namespace {

struct tag_msg final : sim::message {
  explicit tag_msg(int v) : value(v) {}
  int value;
  std::string_view type_name() const noexcept override { return "tag"; }
  std::size_t id_fields() const noexcept override { return 0; }
  std::size_t int_fields() const noexcept override { return 1; }
};

/// Records deliveries; optionally echoes each message once to a peer.
class recorder_process final : public sim::process {
 public:
  void on_wake(sim::context&) override { woke = true; }
  void on_message(sim::context& ctx, node_id from,
                  const sim::message_ptr& m) override {
    const auto& t = static_cast<const tag_msg&>(*m);
    received.emplace_back(from, t.value);
    if (echo_to != invalid_node && t.value < echo_limit)
      ctx.send(echo_to, sim::make_message<tag_msg>(t.value + 1));
  }
  bool woke = false;
  std::vector<std::pair<node_id, int>> received;
  node_id echo_to = invalid_node;
  int echo_limit = 0;
};

/// Sends a burst of tagged messages on wake.
class burst_process final : public sim::process {
 public:
  burst_process(node_id to, int count) : to_(to), count_(count) {}
  void on_wake(sim::context& ctx) override {
    for (int i = 0; i < count_; ++i)
      ctx.send(to_, sim::make_message<tag_msg>(i));
  }
  void on_message(sim::context&, node_id, const sim::message_ptr&) override {}

 private:
  node_id to_;
  int count_;
};

TEST(Network, FifoPerChannelUnderUnitDelay) {
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<burst_process>(2, 50));
  auto rec = std::make_unique<recorder_process>();
  auto* rec_ptr = rec.get();
  net.add_node(2, std::move(rec));
  net.wake(1);
  net.run();
  ASSERT_EQ(rec_ptr->received.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rec_ptr->received[static_cast<size_t>(i)].second, i);
}

TEST(Network, FifoPerChannelUnderRandomDelay) {
  // FIFO must hold even when the scheduler draws wildly different delays.
  sim::random_delay_scheduler sched(99, 1, 1000);
  sim::network net(sched);
  net.add_node(1, std::make_unique<burst_process>(2, 200));
  auto rec = std::make_unique<recorder_process>();
  auto* rec_ptr = rec.get();
  net.add_node(2, std::move(rec));
  net.wake(1);
  net.run();
  ASSERT_EQ(rec_ptr->received.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(rec_ptr->received[static_cast<size_t>(i)].second, i);
}

TEST(Network, MessageDeliveryWakesSleepingReceiver) {
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<burst_process>(2, 1));
  auto rec = std::make_unique<recorder_process>();
  auto* rec_ptr = rec.get();
  net.add_node(2, std::move(rec));
  net.wake(1);  // node 2 is never woken explicitly
  net.run();
  EXPECT_TRUE(rec_ptr->woke);
  EXPECT_TRUE(net.is_awake(2));
  EXPECT_EQ(rec_ptr->received.size(), 1u);
}

TEST(Network, BlockedSenderHoldsTrafficUntilUnblocked) {
  // The 200-message backlog drains one channel's FIFO through both of its
  // buffer-reuse paths: compaction once the head passes half the buffer,
  // and the rewind when the last message leaves.
  for (const int count : {3, 200}) {
    SCOPED_TRACE(count);
    sim::unit_delay_scheduler sched;
    sim::network net(sched);
    net.add_node(1, std::make_unique<burst_process>(2, count));
    auto rec = std::make_unique<recorder_process>();
    auto* rec_ptr = rec.get();
    net.add_node(2, std::move(rec));
    net.block_sender(1);
    net.wake(1);
    net.run_to_quiescence();
    EXPECT_TRUE(rec_ptr->received.empty());
    EXPECT_EQ(net.in_flight(), static_cast<std::uint64_t>(count));
    net.unblock_sender(1);
    net.run_to_quiescence();
    ASSERT_EQ(rec_ptr->received.size(), static_cast<size_t>(count));
    for (int i = 0; i < count; ++i)
      EXPECT_EQ(rec_ptr->received[static_cast<size_t>(i)].second, i);
    EXPECT_TRUE(net.channels_empty());
  }
}

/// Sends two tagged messages to each destination, interleaved: on wake it
/// sends one message to every destination in list order, then a second
/// round.  Values are 10 * destination + round.
class fanout_process final : public sim::process {
 public:
  explicit fanout_process(std::vector<node_id> to) : to_(std::move(to)) {}
  void on_wake(sim::context& ctx) override {
    for (int round = 0; round < 2; ++round)
      for (const node_id v : to_)
        ctx.send(v, sim::make_message<tag_msg>(static_cast<int>(10 * v) + round));
  }
  void on_message(sim::context&, node_id, const sim::message_ptr&) override {}

 private:
  std::vector<node_id> to_;
};

// A sender's channels are listed in creation order; unblock_sender must
// still release its held channels in destination-id order, each channel in
// FIFO order, as the scheduler sees them and as they are delivered.
TEST(Network, UnblockReleasesHeldChannelsInDestinationOrder) {
  class recording_delay final : public sim::scheduler {
   public:
    sim::sim_time delay(node_id, node_id to, const sim::message& m) override {
      seen.emplace_back(to, static_cast<const tag_msg&>(m).value);
      return 1;
    }
    std::vector<std::pair<node_id, int>> seen;
  };
  class delivery_log final : public sim::observer {
   public:
    void on_event(const sim::event_record& r) override {
      if (r.what != sim::event_record::kind::deliver) return;
      delivered.emplace_back(r.to, static_cast<const tag_msg&>(*r.m).value);
    }
    std::vector<std::pair<node_id, int>> delivered;
  };
  recording_delay sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<fanout_process>(std::vector<node_id>{5, 3, 4}));
  for (const node_id v : {3u, 4u, 5u})
    net.add_node(v, std::make_unique<recorder_process>());
  delivery_log log;
  net.add_observer(&log);
  net.block_sender(1);
  net.wake(1);
  net.run_to_quiescence();
  EXPECT_TRUE(sched.seen.empty());
  EXPECT_EQ(net.in_flight(), 6u);

  net.unblock_sender(1);
  const std::vector<std::pair<node_id, int>> expected{
      {3, 30}, {3, 31}, {4, 40}, {4, 41}, {5, 50}, {5, 51}};
  EXPECT_EQ(sched.seen, expected);
  net.run_to_quiescence();
  EXPECT_EQ(log.delivered, expected);
  EXPECT_TRUE(net.channels_empty());
}

TEST(Network, BlockSenderAfterTrafficThrows) {
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<burst_process>(2, 1));
  net.add_node(2, std::make_unique<recorder_process>());
  net.wake(1);
  net.run_to_quiescence();
  // Channel 1->2 is drained, so blocking is fine again; put a message in
  // flight first to trigger the guard.
  net.block_sender(1);  // empty channels: ok
  net.unblock_sender(1);
  sim::context ctx(net, 1);
  ctx.send(2, sim::make_message<tag_msg>(7));
  EXPECT_THROW(net.block_sender(1), std::logic_error);
}

TEST(Network, QuiescenceHookInjectsWork) {
  class wake_two_later final : public sim::scheduler {
   public:
    sim::sim_time delay(node_id, node_id, const sim::message&) override {
      return 1;
    }
    bool on_quiescence(sim::network& net) override {
      if (fired) return false;
      fired = true;
      net.wake(2);
      return true;
    }
    bool fired = false;
  };
  wake_two_later sched;
  sim::network net(sched);
  auto rec = std::make_unique<recorder_process>();
  auto* rec_ptr = rec.get();
  net.add_node(2, std::move(rec));
  net.add_node(1, std::make_unique<burst_process>(2, 0));
  net.wake(1);
  const auto r = net.run();
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(sched.fired);
  EXPECT_TRUE(rec_ptr->woke);
}

TEST(Network, StuckQuiescenceHookAborts) {
  class liar final : public sim::scheduler {
   public:
    sim::sim_time delay(node_id, node_id, const sim::message&) override {
      return 1;
    }
    bool on_quiescence(sim::network&) override { return true; }  // never injects
  };
  liar sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<recorder_process>());
  const auto r = net.run();
  EXPECT_FALSE(r.completed);
}

TEST(Network, EventCapReportsIncomplete) {
  // Two nodes ping-pong forever.
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  auto a = std::make_unique<recorder_process>();
  a->echo_to = 2;
  a->echo_limit = 1 << 30;
  auto b = std::make_unique<recorder_process>();
  b->echo_to = 1;
  b->echo_limit = 1 << 30;
  net.add_node(1, std::move(a));
  net.add_node(2, std::move(b));
  net.wake(1);
  net.wake(2);
  sim::context ctx(net, 1);
  ctx.send(2, sim::make_message<tag_msg>(0));
  const auto r = net.run(/*max_events=*/500);
  EXPECT_FALSE(r.completed);
}

TEST(Network, DuplicateNodeIdRejected) {
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<recorder_process>());
  EXPECT_THROW(net.add_node(1, std::make_unique<recorder_process>()),
               std::invalid_argument);
}

TEST(Network, SendToUnknownNodeRejected) {
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<recorder_process>());
  sim::context ctx(net, 1);
  EXPECT_THROW(ctx.send(99, sim::make_message<tag_msg>(0)),
               std::invalid_argument);
}

TEST(Network, WakeUnknownNodeRejected) {
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  EXPECT_THROW(net.wake(5), std::invalid_argument);
}

TEST(Network, ObserverSeesSendsAndDeliveries) {
  class counting_observer final : public sim::observer {
   public:
    void on_event(const sim::event_record& r) override {
      switch (r.what) {
        case sim::event_record::kind::send: ++sends; break;
        case sim::event_record::kind::deliver: ++delivers; break;
        case sim::event_record::kind::wake: ++wakes; break;
        case sim::event_record::kind::timer: break;
      }
    }
    int sends = 0, delivers = 0, wakes = 0;
  };
  counting_observer obs;
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<burst_process>(2, 5));
  net.add_node(2, std::make_unique<recorder_process>());
  net.add_observer(&obs);
  net.wake(1);
  net.run();
  EXPECT_EQ(obs.sends, 5);
  EXPECT_EQ(obs.delivers, 5);
  EXPECT_EQ(obs.wakes, 2);  // node 1 explicit, node 2 via delivery
}

// The record stream of a reliable run: every node wakes once, every send is
// delivered (same endpoints, same type), and time never runs backwards.
TEST(Network, RecordStreamOfAReliableRun) {
  using link = std::tuple<node_id, node_id, std::string>;
  class stream_check final : public sim::observer {
   public:
    void on_event(const sim::event_record& r) override {
      if (r.at < last_at) ++backwards;
      last_at = r.at;
      switch (r.what) {
        case sim::event_record::kind::wake: woken.insert(r.to); break;
        case sim::event_record::kind::send:
          sent.insert({r.from, r.to, std::string(r.m->type_name())});
          break;
        case sim::event_record::kind::deliver:
          got.insert({r.from, r.to, std::string(r.m->type_name())});
          break;
        case sim::event_record::kind::timer: ++timers; break;
      }
    }
    std::multiset<node_id> woken;
    std::multiset<link> sent, got;
    sim::sim_time last_at = 0;
    int backwards = 0, timers = 0;
  };
  const auto g = graph::random_weakly_connected(20, 30, 4);
  sim::random_delay_scheduler sched(4);
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  stream_check check;
  run.net().add_observer(&check);
  run.wake_all();
  ASSERT_TRUE(run.run().completed);

  const std::vector<node_id> ids = g.nodes();
  EXPECT_EQ(check.woken, std::multiset<node_id>(ids.begin(), ids.end()));
  EXPECT_FALSE(check.sent.empty());
  EXPECT_EQ(check.sent, check.got);
  EXPECT_EQ(check.backwards, 0);
  EXPECT_EQ(check.timers, 0);  // no link adapter, no timers
}

TEST(Network, StatsCountAtSendTime) {
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<burst_process>(2, 4));
  net.add_node(2, std::make_unique<recorder_process>());
  net.block_sender(1);
  net.wake(1);
  net.run_to_quiescence();
  // Messages are counted when sent, even while held by the adversary.
  EXPECT_EQ(net.statistics().messages_of("tag"), 4u);
}

// Regression (unblock_sender): every held message must be shown to the
// scheduler individually.  The bug passed the channel *head* to
// scheduler::delay for each held message, so message-dependent schedulers
// mis-delayed all but the first.
TEST(Network, UnblockDelaysEachHeldMessageIndividually) {
  class value_delay final : public sim::scheduler {
   public:
    sim::sim_time delay(node_id, node_id, const sim::message& m) override {
      const int v = static_cast<const tag_msg&>(m).value;
      seen.push_back(v);
      return static_cast<sim::sim_time>(v) + 1;
    }
    std::vector<int> seen;
  };
  value_delay sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<burst_process>(2, 3));
  auto rec = std::make_unique<recorder_process>();
  auto* rec_ptr = rec.get();
  net.add_node(2, std::move(rec));
  net.block_sender(1);
  net.wake(1);
  net.run_to_quiescence();
  EXPECT_TRUE(sched.seen.empty());  // held sends consult no delays
  net.unblock_sender(1);
  // The release must have consulted the scheduler once per held message,
  // with *that* message — not the channel head three times.
  ASSERT_EQ(sched.seen, (std::vector<int>{0, 1, 2}));
  net.run_to_quiescence();
  ASSERT_EQ(rec_ptr->received.size(), 3u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(rec_ptr->received[static_cast<size_t>(i)].second, i);
}

// Regression (delay clamping): scheduler::delay's ">= 1" contract is
// enforced in exactly one place (network::scheduled_delay).  Debug builds
// assert; release builds clamp to 1 so simulated time stays strictly
// monotone even under a misbehaving scheduler.
TEST(Network, ZeroDelayIsClampedAtTheSingleEnforcementPoint) {
  class zero_delay final : public sim::scheduler {
   public:
    sim::sim_time delay(node_id, node_id, const sim::message&) override {
      return 0;
    }
  };
  zero_delay sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<burst_process>(2, 2));
  auto rec = std::make_unique<recorder_process>();
  auto* rec_ptr = rec.get();
  net.add_node(2, std::move(rec));
  net.wake(1);
  EXPECT_DEBUG_DEATH(net.run(), "delays are >= 1");
#ifdef NDEBUG
  // Release: the clamp delivered everything strictly after the send tick.
  ASSERT_EQ(rec_ptr->received.size(), 2u);
  EXPECT_GE(net.now(), 2u);  // wake at 1, clamped deliveries at >= 2
#else
  (void)rec_ptr;
#endif
}

// Regression (manual-mode wake causality): a wake requested from inside an
// activation must carry that activation as its causal anchor through the
// pending-wake map.  The bug dropped current_anchor() on the floor, so the
// tracer reported every manually-fired wake as a causal root.
TEST(Network, ManualWakeCarriesRequestingActivationAsCause) {
  class wake_requester final : public sim::process {
   public:
    void on_wake(sim::context&) override { net->wake(target); }
    void on_message(sim::context&, node_id,
                    const sim::message_ptr&) override {}
    sim::network* net = nullptr;
    node_id target = invalid_node;
  };
  class anchor_probe final : public sim::observer {
   public:
    void on_event(const sim::event_record& r) override {
      if (r.what != sim::event_record::kind::wake) return;
      ids.push_back(r.id);
      causes.push_back(r.cause);
      woken.push_back(r.to);
    }
    std::vector<std::uint64_t> ids, causes;
    std::vector<node_id> woken;
  };
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.set_manual_mode();
  auto req = std::make_unique<wake_requester>();
  req->net = &net;
  req->target = 2;
  net.add_node(1, std::move(req));
  net.add_node(2, std::make_unique<recorder_process>());
  anchor_probe probe;
  net.add_observer(&probe);

  net.wake(1);  // requested outside any activation: a genuine root
  auto opts = net.manual_options();
  ASSERT_EQ(opts.size(), 1u);
  net.take_step(opts[0]);  // node 1 wakes and requests wake(2)

  opts = net.manual_options();
  ASSERT_EQ(opts.size(), 1u);
  EXPECT_TRUE(opts[0].is_wake);
  EXPECT_EQ(opts[0].a, 2u);
  net.take_step(opts[0]);

  ASSERT_EQ(probe.woken, (std::vector<node_id>{1, 2}));
  EXPECT_EQ(probe.causes[0], sim::event_record::none);  // true root
  // Node 2's wake descends from node 1's activation, not from nowhere.
  EXPECT_EQ(probe.causes[1], probe.ids[0]);
}

// Manual steps are activations like any other: a flight ring attached as an
// observer sees their wakes and deliveries.
TEST(Network, ManualStepsReachTheFlightRing) {
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.set_manual_mode();
  net.add_node(1, std::make_unique<burst_process>(2, 3));
  net.add_node(2, std::make_unique<recorder_process>());
  sim::flight_recorder ring(64);
  net.add_observer(&ring);
  net.wake(1);
  for (auto opts = net.manual_options(); !opts.empty();
       opts = net.manual_options())
    net.take_step(opts.front());

  int wakes = 0, delivers = 0;
  ring.visit([&](const sim::flight_entry& e) {
    if (e.what == sim::flight_entry::kind::wake) ++wakes;
    if (e.what == sim::flight_entry::kind::deliver) ++delivers;
  });
  EXPECT_EQ(wakes, 2);  // node 1 explicit, node 2 via delivery
  EXPECT_EQ(delivers, 3);
}

TEST(Network, TimeAdvancesMonotonically) {
  sim::random_delay_scheduler sched(5, 1, 9);
  sim::network net(sched);
  net.add_node(1, std::make_unique<burst_process>(2, 10));
  auto rec = std::make_unique<recorder_process>();
  net.add_node(2, std::move(rec));
  net.wake(1);
  const auto before = net.now();
  net.run();
  EXPECT_GT(net.now(), before);
}

// --------------------------------------------------------- channel records

// A channel holds a record only while it holds a message: a drained
// channel leaves the index, and its next send opens a fresh record (reusing
// the freed slot) with FIFO order intact.
TEST(Network, DrainedChannelHoldsNoRecord) {
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<burst_process>(2, 3));
  auto rec = std::make_unique<recorder_process>();
  auto* rec_ptr = rec.get();
  net.add_node(2, std::move(rec));
  net.wake(1);
  net.run_to_quiescence();
  EXPECT_EQ(net.live_channels(), 0u);
  EXPECT_EQ(net.channel_opens(), 1u);
  EXPECT_EQ(net.channel_slots(), 1u);

  sim::context ctx(net, 1);
  for (int v = 10; v < 14; ++v) ctx.send(2, sim::make_message<tag_msg>(v));
  EXPECT_EQ(net.live_channels(), 1u);
  net.run_to_quiescence();
  const std::vector<std::pair<node_id, int>> expected{
      {1, 0}, {1, 1}, {1, 2}, {1, 10}, {1, 11}, {1, 12}, {1, 13}};
  EXPECT_EQ(rec_ptr->received, expected);
  EXPECT_EQ(net.live_channels(), 0u);
  EXPECT_EQ(net.channel_opens(), 2u);
  EXPECT_EQ(net.channel_slots(), 1u);  // the freed slot was reused
}

// A send must never reach a retired record: after 1 -> 2 drains, 3 -> 4
// reuses the freed slot, and 1's next send to 2 must open its own record
// rather than land on 3 -> 4.
TEST(Network, ResendAfterSlotReuseOpensItsOwnRecord) {
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  std::vector<recorder_process*> recs;
  for (const node_id v : {1u, 2u, 3u, 4u}) {
    auto rec = std::make_unique<recorder_process>();
    recs.push_back(rec.get());
    net.add_node(v, std::move(rec));
  }
  sim::context from1(net, 1);
  sim::context from3(net, 3);
  from1.send(2, sim::make_message<tag_msg>(1));
  net.run_to_quiescence();
  from3.send(4, sim::make_message<tag_msg>(2));  // takes the freed slot
  from1.send(2, sim::make_message<tag_msg>(3));
  net.run_to_quiescence();
  const std::vector<std::pair<node_id, int>> at2{{1, 1}, {1, 3}};
  const std::vector<std::pair<node_id, int>> at4{{3, 2}};
  EXPECT_EQ(recs[1]->received, at2);
  EXPECT_EQ(recs[3]->received, at4);
  EXPECT_EQ(net.channel_slots(), 2u);
  EXPECT_EQ(net.live_channels(), 0u);
}

// Manual steps can drain a blocked sender's held channel, retiring it and
// freeing its slot for another sender.  unblock_sender must skip that
// stale entry and still release what the sender holds by destination id.
TEST(Network, UnblockSkipsHeldChannelsThatRetiredAndWereReused) {
  class recording_delay final : public sim::scheduler {
   public:
    sim::sim_time delay(node_id, node_id to, const sim::message& m) override {
      seen.emplace_back(to, static_cast<const tag_msg&>(m).value);
      return 1;
    }
    std::vector<std::pair<node_id, int>> seen;
  };
  recording_delay sched;
  sim::network net(sched);
  net.set_manual_mode();
  net.add_node(1, std::make_unique<fanout_process>(std::vector<node_id>{5, 3, 4}));
  net.add_node(2, std::make_unique<burst_process>(6, 1));
  for (const node_id v : {3u, 4u, 5u, 6u})
    net.add_node(v, std::make_unique<recorder_process>());
  net.block_sender(1);
  net.wake(1);
  net.take_step({true, 1, invalid_node});
  // Drain 1 -> 5 (both rounds), so its record retires.
  net.take_step({false, 1, 5});
  net.take_step({false, 1, 5});
  // 2 -> 6 reuses the freed slot; 1 -> 5 opens a fresh record.
  net.wake(2);
  net.take_step({true, 2, invalid_node});
  sim::context ctx(net, 1);
  ctx.send(5, sim::make_message<tag_msg>(52));
  EXPECT_TRUE(sched.seen.empty());

  net.unblock_sender(1);
  const std::vector<std::pair<node_id, int>> expected{
      {3, 30}, {3, 31}, {4, 40}, {4, 41}, {5, 52}};
  EXPECT_EQ(sched.seen, expected);
}

// The "after traffic" guard counts live channels: one drained channel does
// not hide another that still has a message in flight.
TEST(Network, BlockSenderThrowsWhileAnyChannelIsLive) {
  class by_destination final : public sim::scheduler {
   public:
    sim::sim_time delay(node_id, node_id to, const sim::message&) override {
      return to == 2 ? 1 : 10;
    }
  };
  by_destination sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<recorder_process>());
  net.add_node(2, std::make_unique<recorder_process>());
  net.add_node(3, std::make_unique<recorder_process>());
  sim::context ctx(net, 1);
  ctx.send(2, sim::make_message<tag_msg>(1));
  ctx.send(3, sim::make_message<tag_msg>(2));
  net.run_to_quiescence(1);  // delivers 1 -> 2 only; 1 -> 3 is in flight
  EXPECT_EQ(net.live_channels(), 1u);
  EXPECT_THROW(net.block_sender(1), std::logic_error);
  net.run_to_quiescence();
  net.block_sender(1);  // everything drained: ok
  EXPECT_TRUE(net.is_blocked(1));
}

// ------------------------------------------------------------- chaos faults

TEST(ChaosTransport, FullDropLosesEverythingAndCounts) {
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<burst_process>(2, 25));
  auto rec = std::make_unique<recorder_process>();
  auto* rec_ptr = rec.get();
  net.add_node(2, std::move(rec));
  sim::fault_plan plan;
  plan.drop = 1.0;
  net.set_fault_plan(plan);
  net.wake(1);
  net.run();
  EXPECT_TRUE(rec_ptr->received.empty());
  EXPECT_TRUE(net.channels_empty());  // dropped, not leaked
  EXPECT_EQ(net.faults().transmissions, 25u);
  EXPECT_EQ(net.faults().drops, 25u);
  // Stats count at send time: the loss is visible as sends without
  // deliveries, which is exactly what the overhead accounting needs.
  EXPECT_EQ(net.statistics().total_messages(), 25u);
}

TEST(ChaosTransport, DuplicateDeliversBothCopiesInOrder) {
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<burst_process>(2, 10));
  auto rec = std::make_unique<recorder_process>();
  auto* rec_ptr = rec.get();
  net.add_node(2, std::move(rec));
  sim::fault_plan plan;
  plan.duplicate = 1.0;
  net.set_fault_plan(plan);
  net.wake(1);
  net.run();
  ASSERT_EQ(rec_ptr->received.size(), 20u);
  EXPECT_EQ(net.faults().duplicates, 10u);
  // FIFO is structural, so the copy rides right behind its original.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rec_ptr->received[static_cast<size_t>(2 * i)].second, i);
    EXPECT_EQ(rec_ptr->received[static_cast<size_t>(2 * i + 1)].second, i);
  }
}

TEST(ChaosTransport, PermanentOutageBlackholesTheLink) {
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<burst_process>(2, 5));
  auto rec = std::make_unique<recorder_process>();
  auto* rec_ptr = rec.get();
  net.add_node(2, std::move(rec));
  sim::fault_plan plan;
  plan.outage_period = 16;
  plan.outage_duration = 16;  // down 16 of every 16 ticks: always down
  net.set_fault_plan(plan);
  net.wake(1);
  net.run();
  EXPECT_TRUE(rec_ptr->received.empty());
  EXPECT_EQ(net.faults().outage_drops, 5u);
  EXPECT_EQ(net.faults().drops, 0u);
}

TEST(ChaosTransport, ReorderSlackKeepsPerChannelFifo) {
  sim::random_delay_scheduler sched(3);
  sim::network net(sched);
  net.add_node(1, std::make_unique<burst_process>(2, 100));
  auto rec = std::make_unique<recorder_process>();
  auto* rec_ptr = rec.get();
  net.add_node(2, std::move(rec));
  sim::fault_plan plan;
  plan.reorder_slack = 500;
  net.set_fault_plan(plan);
  net.wake(1);
  net.run();
  ASSERT_EQ(rec_ptr->received.size(), 100u);
  EXPECT_GT(net.faults().reorder_delay, 0u);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(rec_ptr->received[static_cast<size_t>(i)].second, i);
}

TEST(ChaosTransport, ReleasePathRollsTheFaultPlanToo) {
  // Held messages go on the wire at unblock time — the second choke point.
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<burst_process>(2, 8));
  auto rec = std::make_unique<recorder_process>();
  auto* rec_ptr = rec.get();
  net.add_node(2, std::move(rec));
  sim::fault_plan plan;
  plan.drop = 1.0;
  net.set_fault_plan(plan);
  net.block_sender(1);
  net.wake(1);
  net.run_to_quiescence();
  EXPECT_FALSE(net.channels_empty());  // held, not yet ruled on
  EXPECT_EQ(net.faults().drops, 0u);
  net.unblock_sender(1);
  net.run_to_quiescence();
  EXPECT_TRUE(rec_ptr->received.empty());
  EXPECT_EQ(net.faults().drops, 8u);
  EXPECT_TRUE(net.channels_empty());
}

TEST(ChaosTransport, FaultStreamsAreDeterministicPerSeed) {
  const auto once = [](std::uint64_t seed) {
    sim::unit_delay_scheduler sched;
    sim::network net(sched);
    net.add_node(1, std::make_unique<burst_process>(2, 200));
    net.add_node(2, std::make_unique<recorder_process>());
    sim::fault_plan plan;
    plan.seed = seed;
    plan.drop = 0.3;
    plan.duplicate = 0.2;
    plan.reorder_slack = 16;
    net.set_fault_plan(plan);
    net.wake(1);
    net.run();
    const sim::fault_stats& f = net.faults();
    return std::tuple{f.transmissions, f.drops, f.duplicates, f.reorder_delay};
  };
  EXPECT_EQ(once(7), once(7));
  EXPECT_NE(once(7), once(8));  // different seed, different fault pattern
}

// A pair's fault decisions continue across its channel's retirements: each
// message below is sent after the previous one drained, so every send
// opens a fresh record, yet the drop/duplicate pattern is the one the
// pair's single fault stream produced when its record never retired.
TEST(ChaosTransport, PairFaultStreamContinuesAcrossRetirement) {
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<recorder_process>());
  auto rec = std::make_unique<recorder_process>();
  auto* rec_ptr = rec.get();
  net.add_node(2, std::move(rec));
  sim::fault_plan plan;
  plan.seed = 29;
  plan.drop = 0.3;
  plan.duplicate = 0.3;
  net.set_fault_plan(plan);
  sim::context ctx(net, 1);
  std::string copies;  // per send: how many copies arrived
  for (int v = 0; v < 32; ++v) {
    const std::size_t before = rec_ptr->received.size();
    ctx.send(2, sim::make_message<tag_msg>(v));
    net.run_to_quiescence();
    copies += static_cast<char>('0' + (rec_ptr->received.size() - before));
  }
  // Recorded with channel records that never retired.
  EXPECT_EQ(copies, "12222201200000110210002211010201");
  EXPECT_EQ(net.faults().drops, 13u);
  EXPECT_EQ(net.faults().duplicates, 10u);
  EXPECT_EQ(net.channel_opens(), 32u);  // every send opened a fresh record
  EXPECT_EQ(net.channel_slots(), 1u);
}

TEST(ChaosTransport, ManualModeAndFaultsAreMutuallyExclusive) {
  sim::unit_delay_scheduler sched;
  sim::fault_plan plan;
  plan.drop = 0.5;
  {
    sim::network net(sched);
    net.set_fault_plan(plan);
    EXPECT_THROW(net.set_manual_mode(), std::logic_error);
  }
  {
    sim::network net(sched);
    net.set_manual_mode();
    EXPECT_THROW(net.set_fault_plan(plan), std::logic_error);
  }
}

TEST(ChaosTransport, SetFaultPlanAfterTrafficThrows) {
  sim::unit_delay_scheduler sched;
  sim::network net(sched);
  net.add_node(1, std::make_unique<burst_process>(2, 1));
  net.add_node(2, std::make_unique<recorder_process>());
  net.block_sender(1);
  net.wake(1);
  net.run_to_quiescence();  // one message now held in flight
  sim::fault_plan plan;
  plan.drop = 0.5;
  EXPECT_THROW(net.set_fault_plan(plan), std::logic_error);
}

}  // namespace
}  // namespace asyncrd

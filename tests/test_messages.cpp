// Exhaustive bit-accounting checks: every message type's size formula must
// match the paper's conventions (ids and integers cost ceil(log2 n) bits,
// tags and booleans O(1)).  These sizes feed Theorem 7 / Lemmas 5.9-5.10
// directly, so they are pinned down here field by field.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "core/messages.h"
#include "sim/wire.h"

namespace asyncrd {
namespace {

using namespace asyncrd::core;

constexpr std::size_t B = 12;  // id width used throughout
constexpr std::size_t H = sim::message::header_bits;

TEST(MessageBits, Query) {
  const query_msg m(17);
  EXPECT_EQ(m.id_fields(), 0u);
  EXPECT_EQ(m.int_fields(), 1u);
  EXPECT_EQ(m.bits(B), B + H);
}

TEST(MessageBits, QueryReplyEmpty) {
  const query_reply_msg m({}, true);
  EXPECT_EQ(m.bits(B), 1 + H);
}

TEST(MessageBits, QueryReplyPayload) {
  const query_reply_msg m({1, 2, 3, 4, 5}, false);
  EXPECT_EQ(m.bits(B), 5 * B + 1 + H);
}

TEST(MessageBits, Search) {
  const search_msg m(7, 3, 9, true);
  EXPECT_EQ(m.id_fields(), 2u);   // initiator + target
  EXPECT_EQ(m.int_fields(), 1u);  // phase
  EXPECT_EQ(m.flag_bits(), 1u);   // new flag
  EXPECT_EQ(m.bits(B), 3 * B + 1 + H);
}

TEST(MessageBits, Release) {
  const release_msg m(7, 2, release_msg::answer_t::merge, 9);
  EXPECT_EQ(m.id_fields(), 2u);   // from_leader + initiator
  EXPECT_EQ(m.int_fields(), 1u);  // from_phase (compression key)
  EXPECT_EQ(m.flag_bits(), 1u);   // merge/abort tag
  EXPECT_EQ(m.bits(B), 3 * B + 1 + H);
}

TEST(MessageBits, MergeAcceptAndFail) {
  const merge_accept_msg a(5, 2);
  EXPECT_EQ(a.bits(B), 2 * B + H);
  const merge_fail_msg f;
  EXPECT_EQ(f.bits(B), H);  // constant size
}

TEST(MessageBits, InfoScalesWithAllSets) {
  const info_msg m(4, {1}, {2, 3}, {4, 5, 6}, {7, 8, 9, 10});
  EXPECT_EQ(m.id_fields(), 10u);
  EXPECT_EQ(m.bits(B), (10 + 1) * B + H);
}

TEST(MessageBits, ConquerAndMemberReply) {
  const conquer_msg c(3, 5);
  EXPECT_EQ(c.bits(B), 2 * B + H);
  const member_reply_msg r(true);
  EXPECT_EQ(r.bits(B), 1 + H);
}

TEST(MessageBits, ProbeAndReply) {
  const probe_msg p(4);
  EXPECT_EQ(p.bits(B), B + H);
  const probe_reply_msg pr(9, 3, 4, {1, 2, 3});
  EXPECT_EQ(pr.id_fields(), 2 + 3u);
  EXPECT_EQ(pr.bits(B), 6 * B + H);
  const probe_reply_msg empty(9, 3, 4, {});
  EXPECT_EQ(empty.bits(B), 3 * B + H);
}

TEST(MessageBits, ReportAndAck) {
  const report_msg r(6);
  EXPECT_EQ(r.bits(B), B + H);
  const report_ack_msg a(9, 2, 6);
  EXPECT_EQ(a.bits(B), 3 * B + H);
}

TEST(MessageNames, AreStableAccountingKeys) {
  // Stats keys are these strings; renaming one silently breaks every
  // lemma audit, so pin them.
  EXPECT_EQ(query_msg(1).type_name(), "query");
  EXPECT_EQ(query_reply_msg({}, false).type_name(), "query_reply");
  EXPECT_EQ(search_msg(1, 1, 2, false).type_name(), "search");
  EXPECT_EQ(release_msg(1, 1, release_msg::answer_t::abort, 2).type_name(),
            "release");
  EXPECT_EQ(merge_accept_msg(1, 1).type_name(), "merge_accept");
  EXPECT_EQ(merge_fail_msg().type_name(), "merge_fail");
  EXPECT_EQ(info_msg(1, {}, {}, {}, {}).type_name(), "info");
  EXPECT_EQ(conquer_msg(1, 1).type_name(), "conquer");
  EXPECT_EQ(member_reply_msg(false).type_name(), "more_done");
  EXPECT_EQ(probe_msg(1).type_name(), "probe");
  EXPECT_EQ(probe_reply_msg(1, 1, 2, {}).type_name(), "probe_reply");
  EXPECT_EQ(report_msg(1).type_name(), "report");
  EXPECT_EQ(report_ack_msg(1, 1, 2).type_name(), "report_ack");
}

// make_message, id_vec and wire_msg's spilled frames allocate through
// sim::pool_allocator, so the byte gauges follow a message's payload until
// its last reference drops, on whichever thread that is.
TEST(MessageBytes, GaugesFollowPayloadsUntilTheLastReferenceDrops) {
  namespace pool = sim::pool_detail;
  pool::reset_peak_bytes();
  const std::int64_t start = pool::stats().live_bytes;

  id_vec more(1000);
  for (std::size_t i = 0; i < more.size(); ++i)
    more[i] = static_cast<node_id>(i);
  sim::message_ptr parked;  // a copy held the way a channel queue holds one
  {
    const sim::message_ptr m = sim::make_message<info_msg>(
        3, std::move(more), id_vec{}, id_vec{}, id_vec{});
    parked = m;
  }
  EXPECT_GE(pool::stats().live_bytes - start, 4000);
  EXPECT_EQ(parked->dispatch_tag(), tag_of(msg_kind::info));
  EXPECT_EQ(parked->id_fields(), 1000u);

  // A 100-byte frame spills past wire_msg's 32-byte inline buffer.  The
  // spill is counted at its exact size, so the message costs 100 bytes
  // more than one whose frame fits inline.
  const auto counted = [](std::size_t len) {
    const std::vector<std::uint8_t> frame(len, sim::wire::wire_bit);
    const std::int64_t before = pool::stats().live_bytes;
    sim::message_ptr w = sim::make_message<sim::wire_msg>(frame.data(), len);
    return std::make_pair(pool::stats().live_bytes - before, std::move(w));
  };
  const std::int64_t inline_bytes = counted(10).first;
  auto spilled = counted(100);
  EXPECT_EQ(spilled.first - inline_bytes, 100);

  const std::int64_t high = pool::stats().live_bytes;
  EXPECT_EQ(pool::stats().peak_bytes, high);
  spilled.second.reset();
  EXPECT_EQ(pool::stats().live_bytes, high - spilled.first);
  EXPECT_EQ(pool::stats().peak_bytes, high);  // held until the reset
  pool::reset_peak_bytes();
  EXPECT_EQ(pool::stats().peak_bytes, high - spilled.first);

  // The info message's last reference drops on another thread.
  std::thread([m = std::move(parked)]() mutable { m.reset(); }).join();
  EXPECT_EQ(parked, nullptr);
  EXPECT_EQ(pool::stats().live_bytes, start);
}

// Messages built by make_message (through sim::pool_allocator) behave like
// ordinary shared_ptrs: copies keep them alive, any thread may drop the last
// reference, and the receive path's dispatch tag is set by construction.
TEST(MessagePool, PooledMessagesSurviveSharing) {
  // A parked copy (the simulator holds messages in channel queues) keeps
  // the block alive after the original reference is gone.
  sim::message_ptr held;
  {
    const auto m = sim::make_message<info_msg>(1, id_vec{1, 2}, id_vec{3},
                                               id_vec{}, id_vec{4});
    held = m;
  }
  EXPECT_EQ(held->type_name(), "info");
  EXPECT_EQ(held->id_fields(), 4u);
}

TEST(MessagePool, CrossThreadFreeMigratesNotCorrupts) {
  // Allocate on this thread, release on another: a burst of such messages
  // returns every byte to the gauge and leaves allocation here working.
  namespace pool = sim::pool_detail;
  const std::int64_t start = pool::stats().live_bytes;
  std::vector<sim::message_ptr> batch;
  batch.reserve(1000);
  for (int i = 0; i < 1000; ++i)
    batch.push_back(sim::make_message<search_msg>(
        static_cast<node_id>(i), 1, static_cast<node_id>(i + 1), false));
  EXPECT_GT(pool::stats().live_bytes, start);
  std::thread t([moved = std::move(batch)]() mutable { moved.clear(); });
  t.join();
  EXPECT_EQ(pool::stats().live_bytes, start);
  const auto m = sim::make_message<search_msg>(9, 9, 9, true);
  EXPECT_EQ(static_cast<const search_msg&>(*m).initiator, 9u);
}

TEST(MessagePool, DispatchTagsSurvivePooledConstruction) {
  // The dense receive path switches on dispatch_tag; make_message must
  // deliver fully-constructed tagged messages.
  const auto q = sim::make_message<query_msg>(2);
  const auto s = sim::make_message<search_msg>(1, 2, 3, true);
  EXPECT_EQ(q->dispatch_tag(), tag_of(msg_kind::query));
  EXPECT_EQ(s->dispatch_tag(), tag_of(msg_kind::search));
  EXPECT_NE(q->dispatch_tag(), s->dispatch_tag());
  EXPECT_NE(q->dispatch_tag(), 0);  // 0 is reserved for untagged/foreign
}

TEST(LexOrder, PhaseDominatesId) {
  EXPECT_TRUE(lex_greater(2, 1, 1, 9));   // higher phase wins
  EXPECT_FALSE(lex_greater(1, 9, 2, 1));
  EXPECT_TRUE(lex_greater(1, 9, 1, 1));   // tie: higher id wins
  EXPECT_FALSE(lex_greater(1, 1, 1, 9));
  EXPECT_FALSE(lex_greater(1, 5, 1, 5));  // strict
}

}  // namespace
}  // namespace asyncrd

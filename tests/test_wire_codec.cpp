// Wire codec properties (DESIGN.md §10): varints and delta sets round-trip
// over randomized inputs including 64-bit extremes, every core message type
// survives struct -> encode -> decode -> struct with its fields, accounting
// and bytes intact, and every class of malformed frame (truncated varint,
// bad tag, unsorted deltas, overflow, trailing bytes) is rejected with
// decode_error instead of UB — decode reads frames off a socket from peers
// it cannot trust, and the suite runs under the ASan/UBSan CI job to prove
// the rejection paths are clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/messages.h"
#include "sim/wire.h"

namespace asyncrd {
namespace {

using sim::wire::decode_error;
using sim::wire::put_id_set;
using sim::wire::put_varint;
using sim::wire::read_id_set;
using sim::wire::reader;
using sim::wire::varint_size;
using sim::wire::wire_bit;

constexpr std::uint64_t u64_max = std::numeric_limits<std::uint64_t>::max();

using bytes = std::vector<std::uint8_t>;

bytes encode(const sim::message& m) {
  bytes out;
  core::wire::encode(m, out);
  return out;
}

sim::message_ptr decode(const bytes& frame) {
  return core::wire::decode(frame.data(), frame.size());
}

/// Reads one delta set from the whole of `buf` into 64-bit ids.
std::vector<std::uint64_t> read_all(const bytes& buf) {
  reader r(buf.data(), buf.size());
  std::vector<std::uint64_t> ids;
  read_id_set(r, ids);
  EXPECT_TRUE(r.done());
  return ids;
}

// ---------------------------------------------------------------------------
// Varint primitive
// ---------------------------------------------------------------------------

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  255,
                                  16383,
                                  16384,
                                  (1ull << 21) - 1,
                                  1ull << 21,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  (1ull << 56) - 1,
                                  1ull << 56,
                                  (1ull << 63) - 1,
                                  1ull << 63,
                                  u64_max};
  for (const std::uint64_t v : values) {
    bytes buf;
    put_varint(buf, v);
    EXPECT_EQ(buf.size(), varint_size(v)) << v;
    reader r(buf.data(), buf.size());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.done());
  }
  // The widest legal varint is 10 bytes (ceil(64/7)).
  EXPECT_EQ(varint_size(u64_max), 10u);
}

TEST(Varint, RoundTripsRandomized) {
  std::mt19937_64 rng(0xC0DEC);
  for (int trial = 0; trial < 2000; ++trial) {
    // Skew toward small values but cover the full 64-bit range: pick a
    // random bit width first, then a value within it.
    const unsigned width = static_cast<unsigned>(rng() % 64) + 1;
    const std::uint64_t v =
        rng() & (width == 64 ? u64_max : (1ull << width) - 1);
    bytes buf;
    put_varint(buf, v);
    reader r(buf.data(), buf.size());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.done());
  }
}

TEST(Varint, RejectsTruncation) {
  const std::uint8_t lonely_continuation[] = {0x80};
  reader r(lonely_continuation, 1);
  EXPECT_THROW(r.varint(), decode_error);

  reader empty(nullptr, 0);
  EXPECT_THROW(empty.varint(), decode_error);
}

TEST(Varint, RejectsWiderThan64Bits) {
  // Eleven continuation groups: more than 64 payload bits.
  bytes too_long(10, 0x80);
  too_long.push_back(0x01);
  reader r(too_long.data(), too_long.size());
  EXPECT_THROW(r.varint(), decode_error);

  // Ten groups whose last byte carries bits beyond bit 63.
  bytes overflow_top(9, 0x80);
  overflow_top.push_back(0x02);
  reader r2(overflow_top.data(), overflow_top.size());
  EXPECT_THROW(r2.varint(), decode_error);

  // Ten groups with only bit 63 in the last byte: exactly 64 bits, legal.
  bytes max(9, 0xFF);
  max.push_back(0x01);
  reader r3(max.data(), max.size());
  EXPECT_EQ(r3.varint(), u64_max);
}

// ---------------------------------------------------------------------------
// Delta-set grammar and its reader
// ---------------------------------------------------------------------------

TEST(IdSetView, RoundTripsHandPickedExtremes) {
  const std::vector<std::vector<std::uint64_t>> sets = {
      {},
      {0},
      {u64_max},
      {0, u64_max},
      {0, 1, 2, 3, 4},
      {1ull << 62, (1ull << 62) + 1, u64_max - 1, u64_max},
  };
  for (const auto& ids : sets) {
    bytes buf;
    put_id_set(buf, ids);
    EXPECT_EQ(read_all(buf), ids);
  }
}

TEST(IdSetView, RoundTripsRandomized) {
  std::mt19937_64 rng(0x5E75);
  for (int trial = 0; trial < 500; ++trial) {
    // Alternate between dense low-id sets (the simulator's regime) and
    // sparse sets sampled from the full 64-bit range.
    const bool dense = (trial % 2) == 0;
    const std::size_t want = static_cast<std::size_t>(rng() % 65);
    std::set<std::uint64_t> s;
    while (s.size() < want) s.insert(dense ? rng() % 1024 : rng());
    const std::vector<std::uint64_t> ids(s.begin(), s.end());

    bytes buf;
    put_id_set(buf, ids);
    EXPECT_EQ(read_all(buf), ids);
  }
}

TEST(IdSetView, IteratorIsMultipass) {
  // The encoded set can be read in any number of passes: reading leaves
  // the bytes untouched, and each pass appends behind what the destination
  // already holds.
  const std::vector<std::uint64_t> ids = {3, 7, 1000, u64_max / 2};
  bytes buf;
  put_id_set(buf, ids);
  std::vector<std::uint64_t> out = {1};
  for (int pass = 0; pass < 2; ++pass) {
    reader r(buf.data(), buf.size());
    read_id_set(r, out);
    EXPECT_TRUE(r.done());
  }
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 3, 7, 1000, u64_max / 2, 3, 7,
                                             1000, u64_max / 2}));
}

TEST(IdSetView, RejectsZeroDelta) {
  bytes buf;
  put_varint(buf, 2);  // count
  put_varint(buf, 5);  // first id
  put_varint(buf, 0);  // delta 0: duplicate/unsorted
  EXPECT_THROW(read_all(buf), decode_error);
}

TEST(IdSetView, RejectsAccumulatedOverflow) {
  bytes buf;
  put_varint(buf, 2);
  put_varint(buf, u64_max);  // first id already at the top
  put_varint(buf, 1);        // +1 wraps
  EXPECT_THROW(read_all(buf), decode_error);

  // Narrower destinations: an id past node_id's range is malformed too,
  // never truncated into a plausible id.
  bytes wide;
  put_varint(wide, 1);
  put_varint(wide, 1ull << 32);
  reader r(wide.data(), wide.size());
  std::vector<node_id> ids;
  EXPECT_THROW(read_id_set(r, ids), decode_error);
}

TEST(IdSetView, RejectsTruncatedSet) {
  // Claims three ids, carries one.
  bytes buf;
  put_varint(buf, 3);
  put_varint(buf, 42);
  EXPECT_THROW(read_all(buf), decode_error);

  // An absurd count on an empty payload must also be rejected, not
  // allocate or overflow.
  bytes huge;
  put_varint(huge, u64_max);
  EXPECT_THROW(read_all(huge), decode_error);
}

// ---------------------------------------------------------------------------
// Id-set count bound (service-mode hardening): a frame may declare at most
// as many set elements as it has bytes left, since every element costs at
// least one varint byte.  A hostile count must be rejected *before* any
// element parsing or reservation — a 2^60 claim in a 3-byte frame would
// otherwise reserve gigabytes.
// ---------------------------------------------------------------------------

TEST(IdSetView, RejectsCountExceedingFrame) {
  bytes buf;
  put_varint(buf, 1ull << 60);  // claimed count
  put_varint(buf, 1);           // one actual element
  EXPECT_THROW(read_all(buf), decode_error);

  // Boundary: count == remaining bytes is admissible (one byte per element
  // is exactly achievable with single-byte varints).
  bytes ok;
  put_varint(ok, 3);
  put_varint(ok, 1);
  put_varint(ok, 1);
  put_varint(ok, 1);
  EXPECT_EQ(read_all(ok), (std::vector<std::uint64_t>{1, 2, 3}));

  // count == remaining + 1 must already fail the pre-check.
  bytes over;
  put_varint(over, 3);
  put_varint(over, 1);
  put_varint(over, 1);
  EXPECT_THROW(read_all(over), decode_error);
}

// ---------------------------------------------------------------------------
// Per-type codec round-trips: struct -> encode -> decode -> struct
// ---------------------------------------------------------------------------

core::id_vec random_node_ids(std::mt19937_64& rng, std::size_t n) {
  std::set<node_id> s;
  while (s.size() < n) {
    // Mix small ids with values near the node_id ceiling.
    const node_id v = (rng() % 4 == 0)
                          ? static_cast<node_id>(u64_max - rng() % 1024)
                          : static_cast<node_id>(rng() % 100000);
    s.insert(v);
  }
  return core::id_vec(s.begin(), s.end());
}

/// Encodes `m`, decodes the frame, and checks what every type shares: the
/// header byte, the decoded type and its bit accounting, and that the
/// decoded struct re-encodes to the same bytes.  Returns the decoded struct
/// for the per-field comparison.
template <typename M>
std::shared_ptr<const M> round_trip(const M& m) {
  const bytes frame = encode(m);
  EXPECT_EQ(frame[0], wire_bit | m.dispatch_tag());
  const sim::message_ptr back = decode(frame);
  // The cast below is only valid for the same type; gtest reports the throw.
  if (back->dispatch_tag() != m.dispatch_tag())
    throw std::runtime_error("decoded a different message type");
  EXPECT_EQ(back->type_name(), m.type_name());
  EXPECT_EQ(back->id_fields(), m.id_fields());
  EXPECT_EQ(back->int_fields(), m.int_fields());
  EXPECT_EQ(back->flag_bits(), m.flag_bits());
  EXPECT_EQ(encode(*back), frame);
  return std::static_pointer_cast<const M>(back);
}

TEST(Codec, RoundTripsEveryFixedFieldType) {
  EXPECT_EQ(round_trip(core::query_msg(7))->requested, 7u);
  {
    const auto v = round_trip(core::search_msg(10, 3, 200000, true));
    EXPECT_EQ(v->initiator, 10u);
    EXPECT_EQ(v->initiator_phase, 3u);
    EXPECT_EQ(v->target, 200000u);
    EXPECT_TRUE(v->new_flag);
  }
  for (const auto answer :
       {core::release_msg::answer_t::merge, core::release_msg::answer_t::abort}) {
    const auto v = round_trip(core::release_msg(9, 4, answer, 17));
    EXPECT_EQ(v->from_leader, 9u);
    EXPECT_EQ(v->from_phase, 4u);
    EXPECT_EQ(v->answer, answer);
    EXPECT_EQ(v->initiator, 17u);
  }
  {
    const auto v = round_trip(core::merge_accept_msg(5, 2));
    EXPECT_EQ(v->conqueror, 5u);
    EXPECT_EQ(v->conqueror_phase, 2u);
  }
  // merge_fail has no payload: the frame is just the header byte.
  EXPECT_EQ(encode(core::merge_fail_msg()).size(), 1u);
  round_trip(core::merge_fail_msg());
  {
    const auto v = round_trip(core::conquer_msg(123, 6));
    EXPECT_EQ(v->leader, 123u);
    EXPECT_EQ(v->phase, 6u);
  }
  EXPECT_TRUE(round_trip(core::member_reply_msg(true))->has_more);
  EXPECT_FALSE(round_trip(core::member_reply_msg(false))->has_more);
  EXPECT_EQ(round_trip(core::probe_msg(42))->requester, 42u);
  EXPECT_EQ(round_trip(core::report_msg(77))->reporter, 77u);
  {
    const auto v = round_trip(core::report_ack_msg(8, 5, 77));
    EXPECT_EQ(v->leader, 8u);
    EXPECT_EQ(v->leader_phase, 5u);
    EXPECT_EQ(v->reporter, 77u);
  }
}

TEST(Codec, RoundTripsIdSetPayloadsRandomized) {
  std::mt19937_64 rng(0xF00D);
  for (int trial = 0; trial < 100; ++trial) {
    const core::id_vec ids = random_node_ids(rng, rng() % 48);
    const bool done = (trial % 2) == 0;
    {
      const auto v = round_trip(core::query_reply_msg(ids, done));
      EXPECT_EQ(v->ids, ids);
      EXPECT_EQ(v->done_flag, done);
    }
    {
      const core::id_vec more = random_node_ids(rng, rng() % 16);
      const core::id_vec unexplored = random_node_ids(rng, rng() % 16);
      const core::id_vec unaware =
          trial % 3 == 0 ? core::id_vec{} : random_node_ids(rng, rng() % 8);
      const auto v = round_trip(core::info_msg(
          static_cast<core::phase_t>(trial), more, ids, unaware, unexplored));
      EXPECT_EQ(v->phase, static_cast<core::phase_t>(trial));
      EXPECT_EQ(v->more, more);
      EXPECT_EQ(v->done, ids);
      EXPECT_EQ(v->unaware, unaware);
      EXPECT_EQ(v->unexplored, unexplored);
    }
    {
      const auto v = round_trip(core::probe_reply_msg(3, 1, 9, ids));
      EXPECT_EQ(v->leader, 3u);
      EXPECT_EQ(v->leader_phase, 1u);
      EXPECT_EQ(v->requester, 9u);
      EXPECT_EQ(v->census, ids);
    }
  }
}

TEST(Codec, LargeFramesSpillToThePoolAndBack) {
  // Well past wire_msg's 32-byte inline buffer: the egress box spills to a
  // counted heap block; its bytes must decode to the same set (ASan guards
  // the copy).
  core::id_vec ids;
  for (node_id i = 0; i < 500; ++i) ids.push_back(i * 7 + 1);
  const bytes frame = encode(core::query_reply_msg(ids, false));
  ASSERT_GT(frame.size(), 32u);
  const sim::wire_msg boxed(frame.data(), frame.size());
  ASSERT_EQ(boxed.size(), frame.size());
  EXPECT_EQ(boxed.dispatch_tag(), frame[0]);
  EXPECT_EQ(bytes(boxed.data(), boxed.data() + boxed.size()), frame);
  const sim::message_ptr m = core::wire::decode(boxed.data(), boxed.size());
  ASSERT_EQ(m->dispatch_tag(), core::tag_of(core::msg_kind::query_reply));
  const auto back = std::static_pointer_cast<const core::query_reply_msg>(m);
  EXPECT_EQ(back->ids, ids);
  EXPECT_FALSE(back->done_flag);
}

// ---------------------------------------------------------------------------
// Malformed frames
// ---------------------------------------------------------------------------

/// A frame with the given inner tag and raw payload bytes.
bytes raw_frame(core::msg_kind k, const bytes& payload) {
  bytes frame(1 + payload.size());
  frame[0] = static_cast<std::uint8_t>(wire_bit | core::tag_of(k));
  std::copy(payload.begin(), payload.end(), frame.begin() + 1);
  return frame;
}

TEST(Codec, RejectsMismatchedTag) {
  // A valid search payload under another kind's header does not parse under
  // that kind's grammar.
  bytes frame = encode(core::search_msg(1, 2, 3, false));
  frame[0] = wire_bit | core::tag_of(core::msg_kind::query);
  EXPECT_THROW(decode(frame), decode_error);
  frame[0] = wire_bit | core::tag_of(core::msg_kind::release);
  EXPECT_THROW(decode(frame), decode_error);
}

TEST(Codec, RejectsTruncatedPayload) {
  // search needs (id, phase, id, flag); give it one varint.
  EXPECT_THROW(decode(raw_frame(core::msg_kind::search, {0x05})),
               decode_error);

  // query_reply whose delta set claims more ids than the frame holds.
  bytes p;
  put_varint(p, 4);
  put_varint(p, 1);
  EXPECT_THROW(decode(raw_frame(core::msg_kind::query_reply, p)),
               decode_error);
}

TEST(Codec, RejectsTrailingBytes) {
  bytes p;
  put_varint(p, 9);
  p.push_back(0x00);  // one byte past the single `requested` field
  EXPECT_THROW(decode(raw_frame(core::msg_kind::query, p)), decode_error);
}

TEST(Codec, RejectsBadBooleanByte) {
  bytes p;
  put_varint(p, 1);
  put_varint(p, 2);
  put_varint(p, 3);
  p.push_back(0x02);  // new_flag must be 0 or 1
  EXPECT_THROW(decode(raw_frame(core::msg_kind::search, p)), decode_error);
}

TEST(Codec, RejectsOutOfRangeScalars) {
  // An id field above the 32-bit node_id ceiling.
  bytes p;
  put_varint(p, 1ull << 32);
  EXPECT_THROW(decode(raw_frame(core::msg_kind::probe, p)), decode_error);

  // A phase field above 32 bits.
  bytes p2;
  put_varint(p2, 7);           // conqueror
  put_varint(p2, 1ull << 40);  // conqueror_phase
  EXPECT_THROW(decode(raw_frame(core::msg_kind::merge_accept, p2)),
               decode_error);

  // An id-set element above the node_id ceiling.
  bytes p3;
  put_varint(p3, 1);
  put_varint(p3, 1ull << 33);
  p3.push_back(0x00);  // done_flag
  EXPECT_THROW(decode(raw_frame(core::msg_kind::query_reply, p3)),
               decode_error);
}

TEST(Codec, RejectsUnsortedIdSetInPayload) {
  bytes p;
  put_varint(p, 2);   // count
  put_varint(p, 9);   // first id
  put_varint(p, 0);   // zero delta
  p.push_back(0x00);  // done_flag
  EXPECT_THROW(decode(raw_frame(core::msg_kind::query_reply, p)),
               decode_error);
}

// ---------------------------------------------------------------------------
// decode as the gate service mode runs on every datagram payload before the
// ARQ sees it (net/udp_transport.cpp): it accepts exactly the codec's
// output and rejects the malformed corpus with decode_error rather than
// anything nastier.
// ---------------------------------------------------------------------------

std::vector<sim::message_ptr> one_of_each_encodable() {
  std::vector<sim::message_ptr> all;
  all.push_back(sim::make_message<core::query_msg>(3));
  all.push_back(
      sim::make_message<core::query_reply_msg>(core::id_vec{4, 9, 1000}, true));
  all.push_back(sim::make_message<core::search_msg>(7, 2, 11, true));
  all.push_back(sim::make_message<core::release_msg>(
      5, 3, core::release_msg::answer_t::merge, 7));
  all.push_back(sim::make_message<core::merge_accept_msg>(12, 4));
  all.push_back(sim::make_message<core::merge_fail_msg>());
  all.push_back(sim::make_message<core::info_msg>(
      3, core::id_vec{1, 2}, core::id_vec{5}, core::id_vec{},
      core::id_vec{9, 40}));
  all.push_back(sim::make_message<core::conquer_msg>(9, 5));
  all.push_back(sim::make_message<core::member_reply_msg>(true));
  all.push_back(sim::make_message<core::probe_msg>(17));
  all.push_back(
      sim::make_message<core::probe_reply_msg>(3, 2, 17, core::id_vec{1, 4}));
  all.push_back(sim::make_message<core::report_msg>(6));
  all.push_back(sim::make_message<core::report_ack_msg>(3, 2, 6));
  return all;
}

TEST(ValidateFrame, AcceptsEveryEncodedType) {
  const auto all = one_of_each_encodable();
  ASSERT_EQ(all.size(), 13u);
  for (const auto& m : all) {
    const bytes frame = encode(*m);
    sim::message_ptr back;
    EXPECT_NO_THROW(back = decode(frame)) << m->type_name();
    // Service-mode stats bucket arrivals under the decoded struct's
    // type_name, the same keys simulation stats use.
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->type_name(), m->type_name());
  }
  // Only the 13 core types have a frame; a boxed frame is not one of them.
  const bytes frame = encode(*all[0]);
  EXPECT_THROW(encode(sim::wire_msg(frame.data(), frame.size())),
               std::logic_error);
}

TEST(ValidateFrame, RejectsMalformedCorpus) {
  const auto reject = [](const bytes& frame, const char* why) {
    EXPECT_THROW(decode(frame), decode_error) << why;
  };
  reject({}, "empty datagram");
  reject({0x03}, "header without wire bit (raw struct tag)");
  reject({wire_bit | 0x00}, "wire bit with reserved tag 0");
  reject({wire_bit | 0x7F}, "wire bit with unknown tag");
  reject({0xE7, 0x01}, "ARQ envelope tag is not an application frame");

  // Truncations of a valid frame: every strict prefix must be rejected
  // (either a short varint, a missing field, or a bad flag byte).
  const bytes good = encode(core::search_msg(300, 2, 11, true));
  ASSERT_NO_THROW(decode(good));
  for (std::size_t cut = 1; cut < good.size(); ++cut)
    reject({good.begin(), good.begin() + static_cast<std::ptrdiff_t>(cut)},
           "truncated frame");

  // Trailing garbage after a complete payload.
  bytes padded = good;
  padded.push_back(0x00);
  reject(padded, "trailing bytes");

  // A flag byte outside {0, 1}.
  bytes badflag = good;
  badflag.back() = 0x02;
  reject(badflag, "non-boolean flag byte");

  // Hostile id-set count inside a query_reply frame: 2^60 claimed in the
  // three bytes that follow it.
  bytes hostile{wire_bit | core::tag_of(core::msg_kind::query_reply)};
  put_varint(hostile, 1ull << 60);  // count far beyond the frame
  put_varint(hostile, 1);
  hostile.push_back(0x01);
  hostile.push_back(0x01);
  reject(hostile, "id-set count exceeds frame");
}

TEST(ValidateFrame, FuzzRandomBytesNeverEscapeDecodeError) {
  // 10k random datagrams: every outcome must be a decoded message or
  // decode_error — anything else (crash, other exception) is exactly the
  // discoveryd bug class this gate exists to stop.
  std::mt19937_64 rng(0xF00DBABEull);
  bytes buf;
  for (int iter = 0; iter < 10000; ++iter) {
    buf.resize(rng() % 64);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    if (!buf.empty() && rng() % 2 == 0)
      buf[0] = wire_bit |
               static_cast<std::uint8_t>(rng() % 16);  // plausible headers
    try {
      EXPECT_NE(decode(buf), nullptr);
    } catch (const decode_error&) {
      // counted drop in service mode; fine
    }
  }
}

}  // namespace
}  // namespace asyncrd

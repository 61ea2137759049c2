// The message vocabulary of the Generic algorithm and its variants (paper
// §4, Figures 3-6), plus the Ad-hoc extensions of §4.5.2 and §6.
//
// Bit accounting follows the paper's conventions: ids and integers (phase,
// requested-count) are O(log n) bits; tags and booleans are O(1) bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "sim/message.h"

namespace asyncrd::core {

/// Phase counter.  Grows like a union-by-rank rank: never exceeds log2 n.
using phase_t = std::uint32_t;

/// Id-set payload storage.  Allocated through sim::pool_allocator, so id
/// sets count in the message byte gauges (sim::pool_detail::stats) like the
/// messages that carry them.
using id_vec = std::vector<node_id, sim::pool_allocator<node_id>>;

/// Dispatch tags for the core vocabulary (sim::message::dispatch_tag).
/// node::accepts/handle switch on these instead of chaining dynamic_casts —
/// the receive path runs once per delivered message, which makes RTTI
/// dispatch the single hottest branch tree in a large run.  Zero stays
/// reserved for "untagged" (foreign message types defer forever, exactly as
/// the old cast chain rejected them).
enum class msg_kind : std::uint8_t {
  query = 1,
  query_reply,
  search,
  release,
  merge_accept,
  merge_fail,
  info,
  conquer,
  member_reply,
  probe,
  probe_reply,
  report,
  report_ack,
};

constexpr std::uint8_t tag_of(msg_kind k) noexcept {
  return static_cast<std::uint8_t>(k);
}

/// Lexicographic (phase, id) order used for all conquest decisions.
inline bool lex_greater(phase_t pa, node_id a, phase_t pb, node_id b) noexcept {
  return pa != pb ? pa > pb : a > b;
}

// ---------------------------------------------------------------------------
// §4.1 Finding an unexplored node
// ---------------------------------------------------------------------------

/// Leader -> member: "remove min{k, |local|} ids from your local set and
/// send them back".
struct query_msg final : sim::message {
  explicit query_msg(std::size_t k)
      : sim::message(tag_of(msg_kind::query)), requested(k) {}
  std::size_t requested;

  std::string_view type_name() const noexcept override { return "query"; }
  std::size_t id_fields() const noexcept override { return 0; }
  std::size_t int_fields() const noexcept override { return 1; }
};

/// Member -> leader: the extracted ids; done_flag means "my local set is now
/// empty" (move me from `more` to `done`).
struct query_reply_msg final : sim::message {
  query_reply_msg(id_vec s, bool done)
      : sim::message(tag_of(msg_kind::query_reply)),
        ids(std::move(s)),
        done_flag(done) {}
  id_vec ids;
  bool done_flag;

  std::string_view type_name() const noexcept override { return "query_reply"; }
  std::size_t id_fields() const noexcept override { return ids.size(); }
  std::size_t flag_bits() const noexcept override { return 1; }
};

// ---------------------------------------------------------------------------
// §4.2 Reaching the current leader of another node
// ---------------------------------------------------------------------------

/// ⟨v.id, v.phase, u.id, new⟩ — follows `next` pointers from the unexplored
/// node u toward its current leader.  `new_flag` is set by u itself when it
/// did not previously know the initiator (so u's leader moves u back from
/// `done` to `more`).
struct search_msg final : sim::message {
  search_msg(node_id init, phase_t ph, node_id tgt, bool nf)
      : sim::message(tag_of(msg_kind::search)),
        initiator(init),
        initiator_phase(ph),
        target(tgt),
        new_flag(nf) {}
  node_id initiator;
  phase_t initiator_phase;
  node_id target;
  bool new_flag;

  std::string_view type_name() const noexcept override { return "search"; }
  std::size_t id_fields() const noexcept override { return 2; }
  std::size_t int_fields() const noexcept override { return 1; }
  std::size_t flag_bits() const noexcept override { return 1; }
};

/// ⟨l, answer, v⟩ — travels the reverse of the search path (via the
/// `previous` queues), performing path compression (`next := l`) at every
/// hop.  answer == merge means l asks to merge into v; abort means v lost.
struct release_msg final : sim::message {
  enum class answer_t : std::uint8_t { merge, abort };
  release_msg(node_id l, phase_t lp, answer_t a, node_id v)
      : sim::message(tag_of(msg_kind::release)),
        from_leader(l),
        from_phase(lp),
        answer(a),
        initiator(v) {}
  node_id from_leader;
  /// Phase of the responding leader.  Not in the paper's ⟨l, answer, v⟩
  /// format; carried so path compression can keep next-pointer updates
  /// monotone in (phase, id).  Costs O(log n) bits per release, which the
  /// Theorem 7 accounting already grants every message.
  phase_t from_phase;
  answer_t answer;
  node_id initiator;

  std::string_view type_name() const noexcept override { return "release"; }
  std::size_t id_fields() const noexcept override { return 2; }
  std::size_t int_fields() const noexcept override { return 1; }
  std::size_t flag_bits() const noexcept override { return 1; }
};

// ---------------------------------------------------------------------------
// §4.3 Merging of two leaders
// ---------------------------------------------------------------------------

/// Conqueror -> conquered: "your merge request is accepted, ship your data".
struct merge_accept_msg final : sim::message {
  merge_accept_msg(node_id c, phase_t cp)
      : sim::message(tag_of(msg_kind::merge_accept)),
        conqueror(c),
        conqueror_phase(cp) {}
  node_id conqueror;
  phase_t conqueror_phase;

  std::string_view type_name() const noexcept override { return "merge_accept"; }
  std::size_t id_fields() const noexcept override { return 1; }
  std::size_t int_fields() const noexcept override { return 1; }
};

/// Sent to a would-be conqueror that is no longer able to accept the merge
/// (it was itself conquered, went passive, or became inactive meanwhile).
struct merge_fail_msg final : sim::message {
  merge_fail_msg() : sim::message(tag_of(msg_kind::merge_fail)) {}

  std::string_view type_name() const noexcept override { return "merge_fail"; }
  std::size_t id_fields() const noexcept override { return 0; }
};

/// Conquered leader -> conqueror: everything it gathered.  The Generic
/// algorithm ships (phase, more, done, unaware, unexplored); the variants of
/// §4.5 drop the unaware set.
struct info_msg final : sim::message {
  info_msg(phase_t ph, id_vec m, id_vec d, id_vec ua, id_vec ux)
      : sim::message(tag_of(msg_kind::info)),
        phase(ph),
        more(std::move(m)),
        done(std::move(d)),
        unaware(std::move(ua)),
        unexplored(std::move(ux)) {}
  phase_t phase;
  id_vec more;
  id_vec done;
  id_vec unaware;
  id_vec unexplored;

  std::string_view type_name() const noexcept override { return "info"; }
  std::size_t id_fields() const noexcept override {
    return more.size() + done.size() + unaware.size() + unexplored.size();
  }
  std::size_t int_fields() const noexcept override { return 1; }
};

// ---------------------------------------------------------------------------
// §4.4 Conquering unaware nodes
// ---------------------------------------------------------------------------

/// Leader -> member: "I am your leader now" (carries the phase so members
/// ignore stale conquerors, per the §4.4 text).
struct conquer_msg final : sim::message {
  conquer_msg(node_id l, phase_t ph)
      : sim::message(tag_of(msg_kind::conquer)), leader(l), phase(ph) {}
  node_id leader;
  phase_t phase;

  std::string_view type_name() const noexcept override { return "conquer"; }
  std::size_t id_fields() const noexcept override { return 1; }
  std::size_t int_fields() const noexcept override { return 1; }
};

/// Member -> leader: the "more/done message" answering a conquer — one bit
/// saying whether the member's local set still holds unreported ids.
struct member_reply_msg final : sim::message {
  explicit member_reply_msg(bool more)
      : sim::message(tag_of(msg_kind::member_reply)), has_more(more) {}
  bool has_more;

  std::string_view type_name() const noexcept override { return "more_done"; }
  std::size_t id_fields() const noexcept override { return 0; }
  std::size_t flag_bits() const noexcept override { return 1; }
};

// ---------------------------------------------------------------------------
// §4.5.2 Ad-hoc Resource Discovery: probing the leader
// ---------------------------------------------------------------------------

/// "When a node wants to know the current snapshot of the ids in the
/// component, it sends a message to the leader (similar to the search
/// messages)".  Routed via `next` pointers and the `previous` queues.
struct probe_msg final : sim::message {
  explicit probe_msg(node_id r)
      : sim::message(tag_of(msg_kind::probe)), requester(r) {}
  node_id requester;

  std::string_view type_name() const noexcept override { return "probe"; }
  std::size_t id_fields() const noexcept override { return 1; }
};

/// Leader's answer, "performs a path compression on the reply (similar to
/// the release messages)".  Optionally carries the id census.
struct probe_reply_msg final : sim::message {
  probe_reply_msg(node_id l, phase_t lp, node_id r, id_vec census_ids)
      : sim::message(tag_of(msg_kind::probe_reply)),
        leader(l),
        leader_phase(lp),
        requester(r),
        census(std::move(census_ids)) {}
  node_id leader;
  phase_t leader_phase;
  node_id requester;
  id_vec census;

  std::string_view type_name() const noexcept override { return "probe_reply"; }
  std::size_t id_fields() const noexcept override { return 2 + census.size(); }
  std::size_t int_fields() const noexcept override { return 1; }
};

// ---------------------------------------------------------------------------
// §6 Dynamic link additions
// ---------------------------------------------------------------------------

/// "u initiates a search message towards its leader with the new flag set to
/// true" — realized as a dedicated report that rides the search routing
/// machinery; the leader moves u from `done` back to `more`.
struct report_msg final : sim::message {
  explicit report_msg(node_id r)
      : sim::message(tag_of(msg_kind::report)), reporter(r) {}
  node_id reporter;

  std::string_view type_name() const noexcept override { return "report"; }
  std::size_t id_fields() const noexcept override { return 1; }
};

/// Acknowledgement routed back with path compression.
struct report_ack_msg final : sim::message {
  report_ack_msg(node_id l, phase_t lp, node_id r)
      : sim::message(tag_of(msg_kind::report_ack)),
        leader(l),
        leader_phase(lp),
        reporter(r) {}
  node_id leader;
  phase_t leader_phase;
  node_id reporter;

  std::string_view type_name() const noexcept override { return "report_ack"; }
  std::size_t id_fields() const noexcept override { return 2; }
  std::size_t int_fields() const noexcept override { return 1; }
};

}  // namespace asyncrd::core

// ---------------------------------------------------------------------------
// Wire codec for the core vocabulary (DESIGN.md §10)
// ---------------------------------------------------------------------------
//
// Frame = header byte (sim::wire::wire_bit | tag_of(kind)), then the
// message's scalar fields as varints in declaration order (booleans and
// enums as one byte), then its id sets as varint delta sets.  Frames exist
// only at the process boundary: net::node_host encodes each remote send,
// and net::udp_transport decodes each arriving frame back into its struct.

namespace asyncrd::core::wire {

/// Appends the frame of core message `m` to `out`.  Throws std::logic_error
/// if `m` is not one of the 13 core types.
void encode(const sim::message& m, std::vector<std::uint8_t>& out);

/// Decodes one frame (header byte included) into its struct.  Throws
/// sim::wire::decode_error on anything malformed: an empty frame, a header
/// without the wire bit or with an unknown tag, an id or phase field out of
/// range, a boolean byte other than 0/1, a bad delta set (see
/// sim::wire::read_id_set), or bytes after the last field.
sim::message_ptr decode(const std::uint8_t* data, std::size_t len);

}  // namespace asyncrd::core::wire

// Binary wire codec for the core message vocabulary.  Grammar in
// DESIGN.md §10; primitives in sim/wire.h.
//
// encode writes the full frame — header byte first, then scalar fields as
// varints in declaration order (booleans/enums as one byte), then id sets
// as varint delta sets.  decode re-checks everything encode guarantees,
// because its input comes off a socket from peers it cannot trust.

#include <limits>
#include <stdexcept>

#include "core/messages.h"
#include "sim/wire.h"

namespace asyncrd::core::wire {

namespace {

using sim::wire::decode_error;
using sim::wire::put_id_set;
using sim::wire::put_varint;
using sim::wire::read_id_set;
using sim::wire::reader;
using sim::wire::wire_bit;

template <typename M>
const M& as(const sim::message& m) {
  return static_cast<const M&>(m);
}

node_id rd_id(reader& r) {
  const std::uint64_t v = r.varint();
  if (v > std::numeric_limits<node_id>::max())
    throw decode_error("wire: id field exceeds node_id range");
  return static_cast<node_id>(v);
}

phase_t rd_phase(reader& r) {
  const std::uint64_t v = r.varint();
  if (v > std::numeric_limits<phase_t>::max())
    throw decode_error("wire: phase field exceeds 32 bits");
  return static_cast<phase_t>(v);
}

bool rd_bool(reader& r) {
  const std::uint8_t b = r.byte();
  if (b > 1) throw decode_error("wire: boolean byte not 0/1");
  return b != 0;
}

id_vec rd_ids(reader& r) {
  id_vec ids;
  read_id_set(r, ids);
  return ids;
}

}  // namespace

void encode(const sim::message& m, std::vector<std::uint8_t>& out) {
  const std::uint8_t tag = m.dispatch_tag();
  if (tag < tag_of(msg_kind::query) || tag > tag_of(msg_kind::report_ack))
    throw std::logic_error("wire: not a core message");
  out.push_back(static_cast<std::uint8_t>(wire_bit | tag));
  switch (static_cast<msg_kind>(tag)) {
    case msg_kind::query:
      put_varint(out, as<query_msg>(m).requested);
      break;
    case msg_kind::query_reply: {
      const auto& q = as<query_reply_msg>(m);
      put_id_set(out, q.ids);
      out.push_back(q.done_flag ? 1 : 0);
      break;
    }
    case msg_kind::search: {
      const auto& s = as<search_msg>(m);
      put_varint(out, s.initiator);
      put_varint(out, s.initiator_phase);
      put_varint(out, s.target);
      out.push_back(s.new_flag ? 1 : 0);
      break;
    }
    case msg_kind::release: {
      const auto& r = as<release_msg>(m);
      put_varint(out, r.from_leader);
      put_varint(out, r.from_phase);
      out.push_back(r.answer == release_msg::answer_t::merge ? 0 : 1);
      put_varint(out, r.initiator);
      break;
    }
    case msg_kind::merge_accept: {
      const auto& a = as<merge_accept_msg>(m);
      put_varint(out, a.conqueror);
      put_varint(out, a.conqueror_phase);
      break;
    }
    case msg_kind::merge_fail:
      break;
    case msg_kind::info: {
      const auto& i = as<info_msg>(m);
      put_varint(out, i.phase);
      put_id_set(out, i.more);
      put_id_set(out, i.done);
      put_id_set(out, i.unaware);
      put_id_set(out, i.unexplored);
      break;
    }
    case msg_kind::conquer: {
      const auto& c = as<conquer_msg>(m);
      put_varint(out, c.leader);
      put_varint(out, c.phase);
      break;
    }
    case msg_kind::member_reply:
      out.push_back(as<member_reply_msg>(m).has_more ? 1 : 0);
      break;
    case msg_kind::probe:
      put_varint(out, as<probe_msg>(m).requester);
      break;
    case msg_kind::probe_reply: {
      const auto& p = as<probe_reply_msg>(m);
      put_varint(out, p.leader);
      put_varint(out, p.leader_phase);
      put_varint(out, p.requester);
      put_id_set(out, p.census);
      break;
    }
    case msg_kind::report:
      put_varint(out, as<report_msg>(m).reporter);
      break;
    case msg_kind::report_ack: {
      const auto& r = as<report_ack_msg>(m);
      put_varint(out, r.leader);
      put_varint(out, r.leader_phase);
      put_varint(out, r.reporter);
      break;
    }
  }
}

sim::message_ptr decode(const std::uint8_t* data, std::size_t len) {
  if (len == 0) throw decode_error("wire: empty frame");
  if ((data[0] & wire_bit) == 0)
    throw decode_error("wire: header missing wire bit");
  reader r(data + 1, len - 1);
  // Fields are read into locals in frame order: the order in which function
  // arguments are evaluated is unspecified.
  sim::message_ptr m;
  switch (static_cast<msg_kind>(data[0] & ~wire_bit)) {
    case msg_kind::query: {
      const std::uint64_t requested = r.varint();
      m = sim::make_message<query_msg>(static_cast<std::size_t>(requested));
      break;
    }
    case msg_kind::query_reply: {
      id_vec ids = rd_ids(r);
      const bool done = rd_bool(r);
      m = sim::make_message<query_reply_msg>(std::move(ids), done);
      break;
    }
    case msg_kind::search: {
      const node_id initiator = rd_id(r);
      const phase_t phase = rd_phase(r);
      const node_id target = rd_id(r);
      const bool new_flag = rd_bool(r);
      m = sim::make_message<search_msg>(initiator, phase, target, new_flag);
      break;
    }
    case msg_kind::release: {
      const node_id leader = rd_id(r);
      const phase_t phase = rd_phase(r);
      const auto answer = rd_bool(r) ? release_msg::answer_t::abort
                                     : release_msg::answer_t::merge;
      const node_id initiator = rd_id(r);
      m = sim::make_message<release_msg>(leader, phase, answer, initiator);
      break;
    }
    case msg_kind::merge_accept: {
      const node_id conqueror = rd_id(r);
      const phase_t phase = rd_phase(r);
      m = sim::make_message<merge_accept_msg>(conqueror, phase);
      break;
    }
    case msg_kind::merge_fail:
      m = sim::make_message<merge_fail_msg>();
      break;
    case msg_kind::info: {
      const phase_t phase = rd_phase(r);
      id_vec more = rd_ids(r);
      id_vec done = rd_ids(r);
      id_vec unaware = rd_ids(r);
      id_vec unexplored = rd_ids(r);
      m = sim::make_message<info_msg>(phase, std::move(more), std::move(done),
                                      std::move(unaware),
                                      std::move(unexplored));
      break;
    }
    case msg_kind::conquer: {
      const node_id leader = rd_id(r);
      const phase_t phase = rd_phase(r);
      m = sim::make_message<conquer_msg>(leader, phase);
      break;
    }
    case msg_kind::member_reply:
      m = sim::make_message<member_reply_msg>(rd_bool(r));
      break;
    case msg_kind::probe:
      m = sim::make_message<probe_msg>(rd_id(r));
      break;
    case msg_kind::probe_reply: {
      const node_id leader = rd_id(r);
      const phase_t phase = rd_phase(r);
      const node_id requester = rd_id(r);
      id_vec census = rd_ids(r);
      m = sim::make_message<probe_reply_msg>(leader, phase, requester,
                                             std::move(census));
      break;
    }
    case msg_kind::report:
      m = sim::make_message<report_msg>(rd_id(r));
      break;
    case msg_kind::report_ack: {
      const node_id leader = rd_id(r);
      const phase_t phase = rd_phase(r);
      const node_id reporter = rd_id(r);
      m = sim::make_message<report_ack_msg>(leader, phase, reporter);
      break;
    }
    default:
      throw decode_error("wire: unknown frame tag");
  }
  r.expect_end();
  return m;
}

}  // namespace asyncrd::core::wire

#include "net/udp_transport.h"

#include <stdexcept>

#include "core/messages.h"
#include "net/envelope.h"
#include "sim/reliable_link.h"
#include "sim/wire.h"

namespace asyncrd::net {

namespace {

/// Datagram node-id fields must fit node_id and never be the sentinel.
node_id checked_id(std::uint64_t v) {
  if (v >= static_cast<std::uint64_t>(invalid_node))
    throw sim::wire::decode_error("datagram: node id out of range");
  return static_cast<node_id>(v);
}

}  // namespace

void udp_transport::transport_send(node_id from, node_id to,
                                   sim::message_ptr m) {
  buf_.clear();
  switch (m->dispatch_tag()) {
    case sim::rl_data_tag: {
      const auto& env = static_cast<const sim::rl_data_msg&>(*m);
      // Service mode ships encoded frames only: the gateway encodes every
      // application message into a wire_msg before app_send, so the inner
      // message here always carries its own bytes.
      if ((env.inner->dispatch_tag() & sim::wire::wire_bit) == 0)
        throw std::logic_error(
            "udp_transport: rl.data inner message is not wire-encoded");
      const auto& frame = static_cast<const sim::wire_msg&>(*env.inner);
      buf_.push_back(dg_data);
      sim::wire::put_varint(buf_, from);
      sim::wire::put_varint(buf_, to);
      sim::wire::put_varint(buf_, env.seq);
      buf_.insert(buf_.end(), frame.data(), frame.data() + frame.size());
      break;
    }
    case sim::rl_ack_tag: {
      const auto& ack = static_cast<const sim::rl_ack_msg&>(*m);
      buf_.push_back(dg_ack);
      sim::wire::put_varint(buf_, from);
      sim::wire::put_varint(buf_, to);
      sim::wire::put_varint(buf_, ack.ack);
      break;
    }
    default:
      // Only the ARQ rides the socket; a raw application message here means
      // the gateway was bypassed.
      throw std::logic_error("udp_transport: only ARQ envelopes ride UDP");
  }

  if (blackhole_) {
    ++counters_.fault_drops;
    return;
  }
  std::size_t copies = 1;
  if (faults_.enabled()) {
    // Rule per transmission, like the simulator's fault_plan: retransmits
    // of the same envelope draw independently.
    if (faults_.drop > 0.0 && fault_rng_.chance(faults_.drop)) {
      ++counters_.fault_drops;
      return;
    }
    if (faults_.duplicate > 0.0 && fault_rng_.chance(faults_.duplicate)) {
      ++counters_.fault_duplicates;
      copies = 2;
    }
  }
  for (; copies > 0; --copies) emit(to);
}

void udp_transport::emit(node_id to) {
  if (sock_->send_to(route_(to), buf_.data(), buf_.size())) {
    ++counters_.datagrams_sent;
    counters_.bytes_sent += buf_.size();
  } else {
    // Kernel refused (full buffer): a wire drop, recovered by retransmit.
    ++counters_.send_failures;
  }
}

void udp_transport::schedule_adapter_timer(sim::sim_time delay,
                                           std::uint64_t key) {
  const sim::sim_time at = now_ + (delay == 0 ? 1 : delay);
  timers_.push({at, key, timer_ties_++});
}

void udp_transport::advance_to(sim::sim_time wall) {
  while (!timers_.empty() && timers_.top().deadline <= wall) {
    const timer_ev ev = timers_.top();
    timers_.pop();
    // Pin the clock to the event's exact deadline: the ARQ's orphan check
    // is `now() == deadline`, so a live timer must observe equality.
    if (ev.deadline > now_) now_ = ev.deadline;
    ++counters_.timer_fires;
    if (adapter_ != nullptr) adapter_->on_timer(ev.key);
    // A callback may arm a new timer with deadline <= wall (a stalled
    // process catching up through several backoff rounds); the loop
    // condition re-reads the heap and fires it in this same call.
  }
  if (wall > now_) now_ = wall;
}

bool udp_transport::on_datagram(const std::uint8_t* data, std::size_t len) {
  ++counters_.datagrams_received;
  counters_.bytes_received += len;
  try {
    if (len == 0) throw sim::wire::decode_error("datagram: empty");
    sim::wire::reader r(data + 1, len - 1);
    switch (data[0]) {
      case dg_data: {
        const node_id src = checked_id(r.varint());
        const node_id dst = checked_id(r.varint());
        const std::uint64_t seq = r.varint();
        if (local_ && !local_(dst))
          throw sim::wire::decode_error("datagram: destination not hosted");
        // The process boundary: the frame becomes its struct, with the
        // whole grammar checked, before the ARQ buffers or releases it.
        auto inner = core::wire::decode(r.pos(), r.remaining());
        auto env = sim::make_message<sim::rl_data_msg>(std::move(inner), seq);
        if (adapter_ != nullptr) adapter_->transport_deliver(src, dst, env);
        return true;
      }
      case dg_ack: {
        const node_id src = checked_id(r.varint());
        const node_id dst = checked_id(r.varint());
        const std::uint64_t ackv = r.varint();
        r.expect_end();
        // Acks mutate the *local* sender's ARQ state: dst must be ours.
        if (local_ && !local_(dst))
          throw sim::wire::decode_error("datagram: ack for a foreign sender");
        auto env = sim::make_message<sim::rl_ack_msg>(ackv);
        if (adapter_ != nullptr) adapter_->transport_deliver(src, dst, env);
        return true;
      }
      default:
        throw sim::wire::decode_error("datagram: unknown tag");
    }
  } catch (const sim::wire::decode_error&) {
    // Counted, logged by the caller if it cares, never uncaught: a garbage
    // datagram costs at most a retransmit.
    ++counters_.decode_errors;
    return false;
  }
}

}  // namespace asyncrd::net

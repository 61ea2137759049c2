#include "sim/reliable_link.h"

#include <algorithm>
#include <cassert>

namespace asyncrd::sim {

namespace {
/// Stream salt separating retransmit jitter from the wire's fault streams.
constexpr std::uint64_t jitter_salt = 0xA3C5'9AC3'1F22'D73Bull;
}  // namespace

bool reliable_link_layer::all_acked() const noexcept {
  for (const sender_state& s : senders_)
    if (!s.unacked.empty()) return false;
  return true;
}

reliable_link_layer::sender_state& reliable_link_layer::sender_for(
    node_id from, node_id to) {
  const std::uint64_t key = pack(from, to);
  const std::uint32_t found = sender_index_.find(key);
  if (found != flat_u64_map::npos) return senders_[found];
  const auto index = static_cast<std::uint32_t>(senders_.size());
  senders_.emplace_back();
  senders_.back().from = from;
  senders_.back().to = to;
  senders_.back().rto = cfg_.rto_initial;
  senders_.back().jitter = rng(net_->link_seed() ^ jitter_salt ^ key);
  sender_index_.insert(key, index);
  return senders_[index];
}

reliable_link_layer::receiver_state& reliable_link_layer::receiver_for(
    node_id from, node_id to) {
  const std::uint64_t key = pack(from, to);
  const std::uint32_t found = receiver_index_.find(key);
  if (found != flat_u64_map::npos) return receivers_[found];
  const auto index = static_cast<std::uint32_t>(receivers_.size());
  receivers_.emplace_back();
  receiver_index_.insert(key, index);
  return receivers_[index];
}

void reliable_link_layer::arm_timer(std::uint32_t index) {
  sender_state& s = senders_[index];
  // Jittered deadline: rto + uniform[0, rto/2].  The spread keeps a capped
  // backoff schedule from resonating with a periodic outage window — if
  // rto_max were a multiple of outage_period, every retry on an unlucky
  // channel would land inside the blackout, forever.  (The config knob
  // turning it off exists to re-create exactly that livelock in watchdog
  // tests.)
  const sim_time delay =
      cfg_.retransmit_jitter ? s.rto + s.jitter.below(s.rto / 2 + 1) : s.rto;
  s.deadline = net_->now() + delay;
  net_->schedule_adapter_timer(delay, index);
}

void reliable_link_layer::app_send(node_id from, node_id to, message_ptr m) {
  sender_state& s = sender_for(from, to);
  const std::uint64_t seq = s.next_seq++;
  message_ptr env = make_message<rl_data_msg>(std::move(m), seq);
  const bool was_drained = s.unacked.empty();
  s.unacked.push_back(env);
  ++outstanding_;
  if (was_drained) ++backlogged_;
  ++stats_.data_sent;
  net_->transport_send(from, to, std::move(env));
  // transport_send may create channels and grow internal tables, but the
  // adapter's own vectors only grow in sender_for/receiver_for: s is alive.
  if (was_drained) {
    s.rto = cfg_.rto_initial;
    arm_timer(sender_index_.find(pack(from, to)));
  }
}

void reliable_link_layer::transport_deliver(node_id from, node_id to,
                                            const message_ptr& m) {
  switch (m->dispatch_tag()) {
    case rl_data_tag:
      handle_data(from, to, static_cast<const rl_data_msg&>(*m));
      return;
    case rl_ack_tag:
      handle_ack(from, to, static_cast<const rl_ack_msg&>(*m));
      return;
    default:
      assert(false && "reliable_link: raw message on a chaos wire");
      return;
  }
}

void reliable_link_layer::handle_data(node_id from, node_id to,
                                      const rl_data_msg& env) {
  receiver_state& r = receiver_for(from, to);
  if (env.seq < r.expected) {
    // Already released in order: a retransmission whose ack was lost, or a
    // wire duplicate.  Re-acking below is what unblocks the sender.
    ++stats_.dup_suppressed;
  } else if (env.seq == r.expected) {
    ++r.expected;
    net_->app_deliver(to, from, env.inner);
    // Drain whatever the gap was holding back, in seq order.
    auto it = r.buffer.begin();
    while (it != r.buffer.end() && it->first == r.expected) {
      ++r.expected;
      net_->app_deliver(to, from, it->second);
      it = r.buffer.erase(it);
    }
  } else {
    const auto [it, inserted] = r.buffer.emplace(env.seq, env.inner);
    (void)it;
    if (inserted)
      ++stats_.buffered_ooo;
    else
      ++stats_.dup_suppressed;
  }
  // Cumulative ack for every arrival — duplicates included, so a sender
  // whose previous acks were all dropped still learns its progress.
  ++stats_.acks_sent;
  net_->transport_send(to, from, make_message<rl_ack_msg>(r.expected));
}

void reliable_link_layer::handle_ack(node_id from, node_id to,
                                     const rl_ack_msg& ack) {
  // The ack arrived at `to` (the data sender) from `from` (the data
  // receiver): it covers the ordered channel (to, from).
  const std::uint32_t index = sender_index_.find(pack(to, from));
  if (index == flat_u64_map::npos) return;  // ack for nothing we sent
  sender_state& s = senders_[index];
  if (ack.ack <= s.base) return;  // stale cumulative ack
  // An ack above everything we ever sent cannot arise from our own data; it
  // is hostile or corrupt (reachable over a real socket, so a guard, not an
  // assert — never triggered by the simulator's own envelopes).
  if (ack.ack > s.base + s.unacked.size()) return;
  const std::uint64_t acked = ack.ack - s.base;
  s.unacked.erase(s.unacked.begin(), s.unacked.begin() +
                                         static_cast<std::ptrdiff_t>(acked));
  s.base = ack.ack;
  outstanding_ -= acked;
  if (s.unacked.empty()) --backlogged_;
  // Progress: back off no longer — reset the timeout and re-arm for what
  // remains.  The previously armed timer is orphaned by the deadline move;
  // with nothing left unacked it finds an empty queue and dies.
  s.rto = cfg_.rto_initial;
  if (!s.unacked.empty()) arm_timer(index);
}

void reliable_link_layer::on_timer(std::uint64_t key) {
  const auto index = static_cast<std::uint32_t>(key);
  assert(index < senders_.size());
  sender_state& s = senders_[index];
  if (s.unacked.empty()) return;        // fully acked: do not re-arm
  if (net_->now() != s.deadline) return;  // orphaned by a newer arm
  ++stats_.timer_fires;
  // Go-back-N: re-put every unacked envelope on the wire.  The receiver's
  // dedup makes the redundancy harmless; the fault plan rules on each copy
  // independently.
  stats_.retransmits += s.unacked.size();
  const node_id from = s.from;
  const node_id to = s.to;
  for (std::size_t i = 0; i < s.unacked.size(); ++i) {
    message_ptr env = s.unacked[i];
    net_->transport_send(from, to, std::move(env));
  }
  ++stats_.rto_backoffs;
  s.rto = std::min<sim_time>(s.rto * 2, cfg_.rto_max);
  stats_.max_rto = std::max<std::uint64_t>(stats_.max_rto, s.rto);
  arm_timer(index);
}

}  // namespace asyncrd::sim

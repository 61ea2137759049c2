#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/bitmath.h"
#include "common/heap.h"

namespace asyncrd::sim {

namespace {

/// Stateless 64-bit finalizer (murmur3) used to derive per-pair fault
/// streams and outage phases from (plan seed, from, to).
std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

/// Domain separators: the fault stream and the outage phase of a pair must
/// be independent even though both derive from (seed, from, to).
constexpr std::uint64_t fault_stream_salt = 0xC8A5'5151'7ED5'58CCull;
constexpr std::uint64_t outage_phase_salt = 0x09E3'779B'97F4'A7C1ull;

}  // namespace

sim_time context::now() const noexcept { return net_->now(); }

void network::add_observer(observer* obs) {
  assert(obs != nullptr);
  assert(std::find(observers_.begin(), observers_.end(), obs) ==
         observers_.end());
  observers_.push_back(obs);
}

bool network::remove_observer(observer* obs) {
  const auto it = std::find(observers_.begin(), observers_.end(), obs);
  if (it == observers_.end()) return false;
  observers_.erase(it);
  return true;
}

void network::add_health_probe(health_probe* p, sim_time first_at) {
  assert(p != nullptr);
  probes_.emplace_back(p, first_at < now_ ? now_ : first_at);
  next_probe_ = std::min(next_probe_, probes_.back().second);
}

bool network::remove_health_probe(health_probe* p) {
  const auto it = std::find_if(probes_.begin(), probes_.end(),
                               [p](const auto& e) { return e.first == p; });
  if (it == probes_.end()) return false;
  probes_.erase(it);
  next_probe_ = no_probe;
  for (const auto& [probe, at] : probes_)
    next_probe_ = std::min(next_probe_, at);
  return true;
}

void network::fire_probes() {
  // Probes may detach (return 0) but must not register new probes from
  // inside on_probe — the vector must not reallocate mid-iteration.
  for (auto& [probe, at] : probes_) {
    if (now_ < at) continue;
    const sim_time next = probe->on_probe(*this);
    at = next == 0 ? no_probe : (next <= now_ ? now_ + 1 : next);
  }
  probes_.erase(std::remove_if(probes_.begin(), probes_.end(),
                               [](const auto& e) { return e.second == no_probe; }),
                probes_.end());
  next_probe_ = no_probe;
  for (const auto& [probe, at] : probes_)
    next_probe_ = std::min(next_probe_, at);
}

void context::send(node_id to, message_ptr m) {
  net_->send_internal(self_, to, std::move(m));
}

void network::reserve_nodes(std::size_t n) { slots_.reserve(n); }

void network::add_node(node_id id, std::unique_ptr<process> p) {
  assert(p != nullptr);
  if (index_of(id) != npos) throw std::invalid_argument("duplicate node id");
  const auto idx = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  slots_.back().proc = std::move(p);
  slots_.back().id = id;
  // index_of finds an id that equals its slot index without the map.
  if (id != idx) node_index_.insert(id, idx);
}

std::vector<memory_part> network::memory_parts() const {
  std::size_t channels =
      heap_bytes(channels_.capacity() * sizeof(channel)) +
      heap_bytes(free_channels_.capacity() * sizeof(std::uint32_t));
  for (const channel& ch : channels_) channels += ch.queue.capacity_bytes();
  std::size_t slots = heap_bytes(slots_.capacity() * sizeof(node_slot));
  for (const node_slot& slot : slots_)
    slots += heap_bytes(slot.held.capacity() * sizeof(std::uint32_t));
  return {
      {"queue_buckets", events_.bucket_bytes()},
      {"queue_overflow", events_.overflow_bytes()},
      {"channels", channels},
      {"channel_index", channel_index_.capacity_bytes()},
      {"node_index", node_index_.capacity_bytes()},
      {"node_slots", slots},
      {"fault_streams", fault_index_.capacity_bytes() +
                            heap_bytes(fault_rngs_.capacity() * sizeof(rng))},
  };
}

std::vector<node_id> network::node_ids() const {
  std::vector<node_id> out;
  out.reserve(slots_.size());
  for (const node_slot& slot : slots_) out.push_back(slot.id);
  std::sort(out.begin(), out.end());
  return out;
}

process* network::find(node_id id) {
  const std::uint32_t i = index_of(id);
  return i == npos ? nullptr : slots_[i].proc.get();
}

const process* network::find(node_id id) const {
  const std::uint32_t i = index_of(id);
  return i == npos ? nullptr : slots_[i].proc.get();
}

bool network::is_awake(node_id id) const {
  const std::uint32_t i = index_of(id);
  return i != npos && slots_[i].awake;
}

void network::wake(node_id id) {
  const std::uint32_t idx = index_of(id);
  if (idx == npos) throw std::invalid_argument("wake: unknown node");
  // A wake requested at quiescence (Lemma 3.1's driver) — or from inside a
  // running activation — is causally ordered after everything that already
  // happened: anchor it to the activation in progress, or the last
  // completed one.
  if (manual_mode_) {
    // The anchor must ride along with the pending wake: when take_step
    // eventually fires it, the requesting activation is its genealogy
    // parent, exactly as in scheduled mode.  (Dropping it here used to make
    // every explored wake a false causal root.)
    if (!slots_[idx].awake) pending_wakes_.emplace(id, current_anchor());
    return;
  }
  push_event(now_ + 1, event_kind::wake, idx, current_anchor());
}

void network::set_manual_mode() {
  if (!events_.empty() || !channels_empty())
    throw std::logic_error("set_manual_mode after traffic");
  if (faults_on_ || adapter_ != nullptr)
    throw std::logic_error("set_manual_mode with chaos transport armed");
  manual_mode_ = true;
}

void network::set_fault_plan(const fault_plan& plan) {
  if (manual_mode_)
    throw std::logic_error("set_fault_plan in manual mode");
  if (!events_.empty() || !channels_empty())
    throw std::logic_error("set_fault_plan after traffic");
  plan_ = plan;
  faults_on_ = plan.enabled();
  fault_index_.clear();
  fault_rngs_.clear();
}

void network::set_link_adapter(link_adapter* a) {
  if (manual_mode_)
    throw std::logic_error("set_link_adapter in manual mode");
  if (!events_.empty() || !channels_empty())
    throw std::logic_error("set_link_adapter after traffic");
  adapter_ = a;
}

bool network::outage_active(node_id from, node_id to) const noexcept {
  if (plan_.outage_period == 0 || plan_.outage_duration == 0) return false;
  const std::uint64_t phase =
      mix64(plan_.seed ^ outage_phase_salt ^ pack(from, to)) %
      plan_.outage_period;
  return (now_ + phase) % plan_.outage_period < plan_.outage_duration;
}

rng& network::fault_stream(node_id from, node_id to) {
  // Keyed by node *ids*, not slot indices or channel records: the fault
  // stream of pair (u, v) is the same in every execution of the plan and
  // continues across the channel's retirements.
  const std::uint64_t key = pack(from, to);
  const std::uint32_t found = fault_index_.find(key);
  if (found != npos) return fault_rngs_[found];
  fault_index_.insert(key, static_cast<std::uint32_t>(fault_rngs_.size()));
  return fault_rngs_.emplace_back(mix64(plan_.seed ^ fault_stream_salt ^ key));
}

std::vector<network::manual_step> network::manual_options() const {
  std::vector<manual_step> out;
  for (const auto& [v, anchor] : pending_wakes_)
    out.push_back({true, v, invalid_node});
  // Slab order follows slot reuse; restore the (from, to) id order the
  // exhaustive driver's choice indices are defined over.  Retired slots
  // have empty queues and drop out here.
  std::vector<manual_step> delivers;
  for (const channel& ch : channels_)
    if (!ch.queue.empty()) delivers.push_back({false, ch.from, ch.to});
  std::sort(delivers.begin(), delivers.end());
  out.insert(out.end(), delivers.begin(), delivers.end());
  return out;
}

void network::take_step(const manual_step& s) {
  if (!manual_mode_) throw std::logic_error("take_step outside manual mode");
  ++now_;
  if (s.is_wake) {
    const auto it = pending_wakes_.find(s.a);
    if (it == pending_wakes_.end())
      throw std::invalid_argument("take_step: wake not pending");
    const std::uint64_t anchor = it->second;
    pending_wakes_.erase(it);
    ensure_awake(index_of(s.a), anchor, event_record::none);
    return;
  }
  const std::uint32_t ci = find_channel(index_of(s.a), index_of(s.b));
  if (ci == npos || channels_[ci].queue.empty())
    throw std::invalid_argument("take_step: channel empty");
  channel& ch = channels_[ci];
  queued_msg q = ch.queue.pop_front();
  if (ch.unscheduled > 0) --ch.unscheduled;
  --in_flight_;
  const std::uint32_t to_index = ch.to_index;
  retire_if_empty(ci);
  // Callbacks may open channels (the slab may reallocate): ch is dead now.
  ensure_awake(to_index, q.sent_in, q.released_in);
  notify({event_record::kind::deliver, now_, s.a, s.b, q.m.get(),
          begin_activation(), q.sent_in, q.released_in, q.sent_at});
  ++app_deliveries_;
  context ctx(*this, s.b);
  slots_[to_index].proc->on_message(ctx, s.a, q.m);
  end_activation();
}

void network::block_sender(node_id id) {
  const std::uint32_t idx = index_of(id);
  if (idx == npos) throw std::invalid_argument("block_sender: unknown node");
  // Blocking must precede any traffic from the node: otherwise already
  // scheduled deliveries would pop the held channel heads out from under
  // the adversary.
  if (slots_[idx].live_out > 0)
    throw std::logic_error("block_sender after traffic from node");
  slots_[idx].blocked = true;
}

void network::unblock_sender(node_id id) {
  const std::uint32_t idx = index_of(id);
  if (idx == npos) return;
  slots_[idx].blocked = false;
  // The release is itself a causal fact: the adversary observed quiescence
  // (or the current activation) before letting these messages through.
  const std::uint64_t released_by = current_anchor();
  // The held list is in the order the channels first held a message, and
  // may name a channel twice or a slot that has since retired (manual
  // steps can drain a held channel) or been reused.  Keep the live ones
  // this sender still holds messages on, and release them by destination
  // id — the (from, to) order the std::map implementation produced — so
  // seq numbers and scheduler draws do not depend on the order in which
  // the sender happened to open its channels.
  std::vector<std::uint32_t> held_channels =
      std::exchange(slots_[idx].held, {});
  std::erase_if(held_channels, [this, idx](std::uint32_t ci) {
    return channels_[ci].from_index != idx || channels_[ci].unscheduled == 0;
  });
  std::sort(held_channels.begin(), held_channels.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return channels_[a].to < channels_[b].to;
            });
  held_channels.erase(
      std::unique(held_channels.begin(), held_channels.end()),
      held_channels.end());
  for (const std::uint32_t ci : held_channels) {
    // Pull the held tail out of the queue, then put each message on the
    // wire through the same choke point scheduled sends use — so release is
    // the second fault-injection point, and each held message gets its own
    // delivery event, delayed according to *that* message (a
    // message-dependent scheduler must never be shown the channel head for
    // every event).
    std::vector<queued_msg> held =
        channels_[ci].queue.take_tail(channels_[ci].unscheduled);
    channels_[ci].unscheduled = 0;
    for (queued_msg& q : held) {
      q.released_in = released_by;
      schedule_transmission(ci, std::move(q), /*counted=*/true);
    }
    // The fault plan may have dropped the whole tail.
    retire_if_empty(ci);
  }
}

sim_time network::scheduled_delay(node_id from, node_id to, const message& m) {
  const sim_time d = sched_->delay(from, to, m);
  assert(d >= 1 && "scheduler::delay contract: delays are >= 1");
  // Release builds: clamp instead of crashing so simulated time stays
  // strictly monotone (a 0 delay would deliver at `now`, before the events
  // already dispatched at `now`).
  return d == 0 ? 1 : d;
}

void network::send_internal(node_id from, node_id to, message_ptr m) {
  assert(m != nullptr);
  // Service mode: a destination this network does not host exits through
  // the gateway.  Accounted like any send (stats, observers) so a
  // multi-process run reports the same per-node totals as a sim run; the
  // gateway's own transport handles reliability, so the local fault plan
  // and link adapter do not apply.  The gateway encodes the frame and
  // returns its size: those are the bytes this process puts on the wire.
  if (gateway_ != nullptr && index_of(to) == npos) {
    stats_.record(*m);
    notify({event_record::kind::send, now_, from, to, m.get(), active_});
    wire_slot& s = wire_slots_[m->dispatch_tag() % wire_slots_.size()];
    if (s.name.empty()) s.name = m->type_name();
    const std::size_t bytes = gateway_->remote_send(from, to, std::move(m));
    ++s.frames;
    s.bytes += bytes;
    ++wire_frames_;
    wire_bytes_ += bytes;
    return;
  }
  // With a reliable-delivery adapter installed, application sends detour
  // through it; the adapter re-enters via transport_send with its envelopes.
  if (adapter_ != nullptr) {
    adapter_->app_send(from, to, std::move(m));
    return;
  }
  transport_send(from, to, std::move(m));
}

void network::transport_send(node_id from, node_id to, message_ptr m) {
  assert(m != nullptr);
  const std::uint32_t to_idx = index_of(to);
  if (to_idx == npos) throw std::invalid_argument("send: unknown destination");
  const std::uint32_t from_idx = index_of(from);
  if (from_idx == npos) throw std::invalid_argument("send: unknown sender");
  stats_.record(*m);
  notify({event_record::kind::send, now_, from, to, m.get(), active_});

  node_slot& sender = slots_[from_idx];
  const std::uint32_t ci = channel_of(from_idx, to_idx);
  queued_msg q{std::move(m), active_, event_record::none, now_};
  if (manual_mode_ || sender.blocked) {
    // Held messages are not on the wire yet: the fault plan rules on them
    // at release time (unblock_sender), not here.
    ++in_flight_;
    channel& ch = channels_[ci];
    ch.queue.push_back(std::move(q));
    if (ch.unscheduled++ == 0 && sender.blocked) sender.held.push_back(ci);
    return;
  }
  // Driver sends (probe, dynamic additions) happen between events; they are
  // causally ordered after the last completed activation.
  if (!in_activation()) q.released_in = last_event_;
  schedule_transmission(ci, std::move(q), /*counted=*/false);
  // The fault plan may have dropped a new channel's first message.
  retire_if_empty(ci);
}

void network::schedule_transmission(std::uint32_t ci, queued_msg q,
                                    bool counted) {
  const node_id from = channels_[ci].from;
  const node_id to = channels_[ci].to;
  rng* fault_rng = nullptr;
  if (faults_on_) {
    prof_scope fs(prof_, cost_profiler::phase::fault_rule);
    ++fault_stats_.transmissions;
    if (outage_active(from, to)) {
      ++fault_stats_.outage_drops;
      if (counted) --in_flight_;
      return;
    }
    fault_rng = &fault_stream(from, to);
    if (plan_.drop > 0.0 && fault_rng->chance(plan_.drop)) {
      ++fault_stats_.drops;
      if (counted) --in_flight_;
      return;
    }
  }
  if (!counted) ++in_flight_;
  sim_time d = scheduled_delay(from, to, *q.m);
  bool dup = false;
  if (faults_on_) {
    prof_scope fs(prof_, cost_profiler::phase::fault_rule);
    if (plan_.reorder_slack > 0) {
      // Extra delay within the model's freedom: delivery stays finite and
      // >= the scheduler's choice; per-channel FIFO stays structural (a
      // delivery event always releases the channel head), so slack shuffles
      // *cross-channel* interleavings only.
      const auto extra = static_cast<sim_time>(fault_rng->below(
          static_cast<std::uint64_t>(plan_.reorder_slack) + 1));
      fault_stats_.reorder_delay += extra;
      d += extra;
    }
    dup = plan_.duplicate > 0.0 && fault_rng->chance(plan_.duplicate);
  }
  if (!dup) {
    channels_[ci].queue.push_back(std::move(q));
    push_event(now_ + d, event_kind::deliver, ci);
    return;
  }
  // A duplicate is a full extra transmission — accounted in stats and shown
  // to observers (that cost is what bench_chaos_overhead measures), same
  // causal record, its own delay roll.
  queued_msg copy{q.m, q.sent_in, q.released_in, q.sent_at};
  channels_[ci].queue.push_back(std::move(q));
  push_event(now_ + d, event_kind::deliver, ci);
  ++fault_stats_.duplicates;
  ++in_flight_;
  stats_.record(*copy.m);
  notify({event_record::kind::send, now_, from, to, copy.m.get(), active_});
  sim_time dd = scheduled_delay(from, to, *copy.m);
  if (plan_.reorder_slack > 0) {
    const auto extra = static_cast<sim_time>(fault_rng->below(
        static_cast<std::uint64_t>(plan_.reorder_slack) + 1));
    fault_stats_.reorder_delay += extra;
    dd += extra;
  }
  channels_[ci].queue.push_back(std::move(copy));
  push_event(now_ + dd, event_kind::deliver, ci);
}

void network::app_deliver(node_id to, node_id from, const message_ptr& m) {
  assert(m != nullptr);
  if (!in_activation())
    throw std::logic_error("app_deliver outside a delivery activation");
  const std::uint32_t to_index = index_of(to);
  if (to_index == npos)
    throw std::invalid_argument("app_deliver: unknown node");
  // No observer record here: observers and stats account the *transport*
  // level (the envelope delivery was already published); this is the
  // adapter releasing the reassembled application message to the process.
  ++app_deliveries_;
  context ctx(*this, to);
  // Handler time buckets by the *application* message's dispatch tag even
  // under an adapter (the enclosing arq span pauses here).
  prof_scope ps(prof_, m->dispatch_tag(), prof_scope::tag_t{});
  slots_[to_index].proc->on_message(ctx, from, m);
}

void network::inject_remote(node_id to, node_id from, const message_ptr& m) {
  assert(m != nullptr);
  if (in_activation())
    throw std::logic_error("inject_remote from inside an activation");
  const std::uint32_t to_index = index_of(to);
  if (to_index == npos)
    throw std::invalid_argument("inject_remote: unknown destination");
  // One remote arrival is one delivery activation, exactly like the manual
  // stepper's delivery arm: virtual time advances by a tick, the node wakes
  // if this is its first contact, and observers see a normal delivery.  The
  // causal parents are none — the sending activation lives in another
  // process; cross-process genealogy is the trace merger's job, not ours.
  ++now_;
  ensure_awake(to_index, event_record::none, event_record::none);
  notify({event_record::kind::deliver, now_, from, to, m.get(),
          begin_activation(), event_record::none, event_record::none, now_});
  ++app_deliveries_;
  context ctx(*this, to);
  slots_[to_index].proc->on_message(ctx, from, m);
  end_activation();
}

void network::schedule_adapter_timer(sim_time delay, std::uint64_t key) {
  if (adapter_ == nullptr)
    throw std::logic_error("schedule_adapter_timer without adapter");
  push_event(now_ + (delay == 0 ? 1 : delay), event_kind::timer, 0, key);
}

std::uint32_t network::channel_of(std::uint32_t from, std::uint32_t to) {
  const std::uint64_t key = pack(from, to);
  const std::uint32_t found = channel_index_.find(key);
  if (found != npos) return found;
  std::uint32_t ci;
  if (free_channels_.empty()) {
    ci = static_cast<std::uint32_t>(channels_.size());
    channels_.emplace_back();
  } else {
    ci = free_channels_.back();
    free_channels_.pop_back();
  }
  channel& ch = channels_[ci];
  ch.from_index = from;
  ch.to_index = to;
  ch.from = slots_[from].id;
  ch.to = slots_[to].id;
  channel_index_.insert(key, ci);
  ++slots_[from].live_out;
  ++channel_opens_;
  return ci;
}

void network::retire_if_empty(std::uint32_t ci) {
  const channel& ch = channels_[ci];
  if (!ch.queue.empty()) return;
  channel_index_.erase(pack(ch.from_index, ch.to_index));
  --slots_[ch.from_index].live_out;
  free_channels_.push_back(ci);
}

void network::ensure_awake(std::uint32_t idx, std::uint64_t cause,
                           std::uint64_t release) {
  node_slot& slot = slots_[idx];
  if (slot.awake) return;
  slot.awake = true;
  process* proc = slot.proc.get();
  const node_id id = slot.id;
  // Callbacks may add nodes (vector may reallocate): slot is dead now.
  notify({.what = event_record::kind::wake, .at = now_, .to = id,
          .id = begin_activation(), .cause = cause, .release = release});
  context ctx(*this, id);
  {
    prof_scope ps(prof_, cost_profiler::phase::wake);
    proc->on_wake(ctx);
  }
  end_activation();
}

void network::dispatch(const event& ev) {
  now_ = ev.at;
  switch (ev.kind) {
    case event_kind::wake: {
      ensure_awake(ev.target, ev.cause, event_record::none);
      break;
    }
    case event_kind::deliver: {
      channel& ch = channels_[ev.target];
      assert(!ch.queue.empty());
      // FIFO: a delivery event always releases the channel head, regardless
      // of which send created the event.
      queued_msg q = ch.queue.pop_front();
      --in_flight_;
      const node_id from = ch.from;
      const node_id to = ch.to;
      const std::uint32_t to_index = ch.to_index;
      retire_if_empty(ev.target);
      // Callbacks may open channels (the slab may reallocate): ch is dead.
      // A message-induced wake shares the arriving message's causes.
      ensure_awake(to_index, q.sent_in, q.released_in);
      notify({event_record::kind::deliver, now_, from, to, q.m.get(),
              begin_activation(), q.sent_in, q.released_in, q.sent_at});
      if (adapter_ != nullptr) {
        // Transport-level arrival: the adapter dedups/reorders and releases
        // application messages via app_deliver inside this activation.
        prof_scope ps(prof_, cost_profiler::phase::arq);
        adapter_->transport_deliver(from, to, q.m);
      } else {
        ++app_deliveries_;
        context ctx(*this, to);
        prof_scope ps(prof_, q.m->dispatch_tag(), prof_scope::tag_t{});
        slots_[to_index].proc->on_message(ctx, from, q.m);
      }
      end_activation();
      break;
    }
    case event_kind::timer: {
      // Timer callbacks run between activations (like quiescence hooks):
      // retransmissions they trigger are causally ordered after the last
      // completed activation.
      notify(
          {.what = event_record::kind::timer, .at = now_, .cause = ev.cause});
      if (adapter_ != nullptr) {
        prof_scope ps(prof_, cost_profiler::phase::arq);
        adapter_->on_timer(ev.cause);
      }
      break;
    }
  }
}

void network::push_event(sim_time at, event_kind kind, std::uint32_t target,
                         std::uint64_t cause) {
  events_.push(event{at, seq_++, cause, target, kind});
}

void network::finalize_id_bits() {
  if (id_bits_fixed_) return;
  id_bits_fixed_ = true;
  if (stats_.id_bits() <= 1 && slots_.size() > 2)
    stats_.set_id_bits(ceil_log2(slots_.size()));
}

run_result network::run_to_quiescence(std::uint64_t max_events) {
  finalize_id_bits();
  stop_requested_ = false;
  run_result r;
  const auto start = std::chrono::steady_clock::now();
  if (prof_ != nullptr) prof_->loop_enter();
  while (!events_.empty()) {
    if (r.events_processed++ >= max_events) {
      r.completed = false;
      break;
    }
    if (prof_ == nullptr) {
      dispatch(events_.pop());
    } else {
      prof_->event_begin();
      prof_->begin(cost_profiler::phase::queue_pop);
      const event ev = events_.pop();
      prof_->end();
      dispatch(ev);
    }
    // Runtime health: one compare per event when no probe is due.
    if (now_ >= next_probe_) {
      prof_scope ps(prof_, cost_profiler::phase::probes);
      fire_probes();
      if (stop_requested_) {
        r.completed = false;
        r.stopped = true;
        break;
      }
    }
    if (prof_ != nullptr) prof_->event_end();
  }
  if (prof_ != nullptr) prof_->loop_exit();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ++timing_.loops;
  timing_.events += r.events_processed;
  timing_.wall_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  sched_->on_run_timing(timing_);
  return r;
}

run_result network::run(std::uint64_t max_events) {
  finalize_id_bits();
  run_result total;
  int idle_iterations = 0;
  for (;;) {
    run_result r = run_to_quiescence(max_events - total.events_processed);
    total.events_processed += r.events_processed;
    if (!r.completed) {
      total.completed = false;
      total.stopped = r.stopped;
      return total;
    }
    // A correct quiescence hook that returns true must have injected work
    // (a wake event or an unblocked channel); two consecutive no-progress
    // iterations mean the hook is stuck and the run is aborted.
    idle_iterations = (r.events_processed == 0) ? idle_iterations + 1 : 0;
    if (idle_iterations > 2) {
      total.completed = false;
      return total;
    }
    if (!sched_->on_quiescence(*this)) break;
  }
  return total;
}

}  // namespace asyncrd::sim

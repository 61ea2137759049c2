#include "net/node_host.h"

#include <algorithm>
#include <stdexcept>

#include "common/bitmath.h"
#include "sim/wire.h"

namespace asyncrd::net {

node_host::node_host(const graph::digraph& g, const core::config& cfg,
                     std::size_t proc, std::size_t procs, std::uint64_t seed)
    : g_(&g),
      cfg_(&cfg),
      proc_(proc),
      procs_(procs == 0 ? 1 : procs),
      seed_(seed),
      transport_(sock_, seed),
      arq_(transport_),
      gateway_(*this),
      net_(sched_) {
  if (proc_ >= procs_)
    throw std::invalid_argument("node_host: proc index out of range");
  sock_.bind_loopback();

  transport_.set_adapter(&arq_);
  transport_.set_local([this](node_id v) { return hosts(v); });
  transport_.set_deliver(
      [this](node_id to, node_id from, const sim::message_ptr& m) {
        on_deliver_remote(to, from, m);
      });
  transport_.set_route([this](node_id to) {
    return loopback(peer_ports_[static_cast<std::size_t>(to) % procs_]);
  });

  // Sends to nodes this process does not host leave through the gateway.
  net_.set_remote_gateway(&gateway_);

  const std::vector<node_id> ids = g.nodes();
  graph::component_sizes sizes;  // aligned with ids
  if (cfg_->algo == core::variant::bounded) sizes = g.weak_component_sizes();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const node_id v = ids[i];
    if (!hosts(v)) continue;
    const std::size_t csize =
        cfg_->algo == core::variant::bounded ? sizes[i] : std::size_t{0};
    auto owned = std::make_unique<core::node>(v, *cfg_, g.out(v), csize);
    nodes_.push_back(owned.get());
    local_.push_back(v);
    net_.add_node(v, std::move(owned));
  }
  // Bit accounting uses the *cluster* id width: ids are drawn from the full
  // graph even though this process hosts a slice of it.
  if (g.node_count() > 2) net_.set_id_bits(ceil_log2(g.node_count()));
  rxbuf_.resize(max_datagram);
}

void node_host::set_peers(std::vector<std::uint16_t> peer_ports) {
  if (peer_ports.size() != procs_)
    throw std::invalid_argument("node_host: peer map size != procs");
  peer_ports_ = std::move(peer_ports);
}

std::size_t node_host::gateway::remote_send(node_id from, node_id to,
                                            sim::message_ptr m) {
  // The process boundary: the struct is encoded once, and the ARQ holds
  // (and retransmits) the frame.
  std::vector<std::uint8_t>& frame = host_->scratch_;
  frame.clear();
  core::wire::encode(*m, frame);
  host_->arq_.app_send(
      from, to, sim::make_message<sim::wire_msg>(frame.data(), frame.size()));
  return frame.size();
}

void node_host::on_deliver_remote(node_id to, node_id from,
                                  const sim::message_ptr& m) {
  net_.inject_remote(to, from, m);
}

void node_host::start() {
  if (peer_ports_.empty())
    throw std::logic_error("node_host: start() before set_peers()");
  if (started_) return;
  started_ = true;
  for (const node_id v : local_) net_.wake(v);
  const sim::run_result res = net_.run_to_quiescence();
  events_ += res.events_processed;
}

void node_host::pump() {
  transport_.advance_to(clock_.ticks());
  for (;;) {
    const std::ptrdiff_t n = sock_.recv(rxbuf_.data(), rxbuf_.size());
    if (n < 0) break;
    transport_.on_datagram(rxbuf_.data(), static_cast<std::size_t>(n));
  }
  // Injected deliveries queued follow-on local work; drain it, emitting
  // further remote sends through the gateway as it goes.
  const sim::run_result res = net_.run_to_quiescence();
  events_ += res.events_processed;
}

int node_host::wait_ms(int max_ms) const {
  const sim::sim_time dl = transport_.next_deadline();
  if (dl == static_cast<sim::sim_time>(-1)) return max_ms;
  const sim::sim_time now = clock_.ticks();
  const std::uint64_t ahead_ms = dl > now ? (dl - now) / 10 : 0;
  return ahead_ms < static_cast<std::uint64_t>(max_ms)
             ? static_cast<int>(ahead_ms)
             : max_ms;
}

void node_host::poll_once(int max_wait_ms) {
  const int wait = wait_ms(max_wait_ms);
  if (wait > 0) wait_readable(sock_.fd(), wait);
  pump();
}

std::uint64_t node_host::progress() const noexcept {
  return net_.app_deliveries() + transport_.stats().datagrams_received;
}

std::uint64_t node_host::outstanding() const noexcept {
  return arq_.outstanding() + net_.in_flight() + net_.queue_depth();
}

const core::node& node_host::at(node_id v) const {
  const auto it = std::find(local_.begin(), local_.end(), v);
  if (it == local_.end())
    throw std::invalid_argument("node_host: node not hosted here");
  return *nodes_[static_cast<std::size_t>(it - local_.begin())];
}

telemetry::run_report node_host::report(bool completed) const {
  telemetry::run_report rep;
  rep.label = "discoveryd";
  rep.variant = std::string(core::to_string(cfg_->algo));
  rep.seed = seed_;
  rep.nodes = local_.size();
  for (const node_id v : local_)
    rep.edges += g_->out(v).size();
  rep.completed = completed;
  for (const core::node* n : nodes_)
    if (n->is_leader()) ++rep.leaders;
  rep.events_processed = events_;
  rep.completion_time = net_.now();
  rep.wall_ms = clock_.elapsed_ms();
  rep.events_per_sec =
      rep.wall_ms > 0.0 ? static_cast<double>(events_) / (rep.wall_ms / 1e3)
                        : 0.0;
  const sim::stats& st = net_.statistics();
  rep.total_messages = st.total_messages();
  rep.total_bits = st.total_bits();
  rep.id_bits = st.id_bits();
  rep.messages_by_type = st.by_type();

  const udp_transport::counters& tc = transport_.stats();
  rep.wire.enabled = true;
  rep.wire.bytes_sent = net_.wire_bytes_sent();
  rep.wire.frames = net_.wire_frames();
  rep.wire.decode_errors = tc.decode_errors;
  for (const auto& slot : net_.wire_by_tag()) {
    if (slot.frames == 0) continue;
    auto& entry = rep.wire.by_type[std::string(slot.name)];
    entry.count += slot.frames;
    entry.bytes += slot.bytes;
  }

  // The UDP wire is the chaos transport of service mode: datagram counters
  // map onto the fault-plan slots, ARQ recovery counters carry over as-is.
  const sim::reliable_link_stats rl = arq_.stats();
  rep.chaos.enabled = true;
  rep.chaos.transmissions = tc.datagrams_sent;
  rep.chaos.drops = tc.fault_drops + tc.send_failures;
  rep.chaos.duplicates = tc.fault_duplicates;
  rep.chaos.data_sent = rl.data_sent;
  rep.chaos.retransmits = rl.retransmits;
  rep.chaos.acks_sent = rl.acks_sent;
  rep.chaos.dup_suppressed = rl.dup_suppressed;
  rep.chaos.timer_fires = rl.timer_fires;
  rep.chaos.rto_backoffs = rl.rto_backoffs;
  rep.chaos.max_rto = rl.max_rto;

  rep.extra["proc"] = static_cast<double>(proc_);
  rep.extra["procs"] = static_cast<double>(procs_);
  rep.extra["cluster_nodes"] = static_cast<double>(g_->node_count());
  rep.extra["datagrams_sent"] = static_cast<double>(tc.datagrams_sent);
  rep.extra["datagrams_received"] = static_cast<double>(tc.datagrams_received);
  rep.extra["datagram_bytes_sent"] = static_cast<double>(tc.bytes_sent);
  rep.extra["datagram_bytes_received"] =
      static_cast<double>(tc.bytes_received);
  rep.extra["decode_errors"] = static_cast<double>(tc.decode_errors);
  rep.extra["arq_outstanding"] = static_cast<double>(arq_.outstanding());
  return rep;
}

}  // namespace asyncrd::net

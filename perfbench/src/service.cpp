// service_loopback: a sequence of real UDP loopback clusters, verified with
// core::check_membership.
//
// Each cluster is three net::node_host shards (the engine discoveryd runs)
// exchanging datagrams over their own loopback sockets, with the wire
// codec and the UDP-side ARQ, all pumped round-robin by this one thread.
// Hosting the shards in-process leaves out discoveryd's control plane and
// the process boundaries: on a shared 4-core host, clusters of separate
// processes spread 0.6 (interquartile range over median) in convergence
// time across runs, because every cluster waited on the scheduler of four
// busy processes.  One thread keeps the UDP path and takes the scheduler out.
#include <poll.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/checker.h"
#include "core/node.h"
#include "net/genspec.h"
#include "net/node_host.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace asyncrd;

/// A cluster that has not converged after this long counts as failed.
constexpr double cluster_deadline_s = 20.0;
constexpr std::size_t shards = 3;

using cluster = std::vector<std::unique_ptr<net::node_host>>;

/// Pumps every shard until no work is outstanding anywhere and a whole pass
/// made no progress.  False if `deadline` passes first.
bool converge(cluster& hosts, double deadline) {
  std::vector<pollfd> fds;
  for (const auto& h : hosts) fds.push_back({h->fd(), POLLIN, 0});
  std::uint64_t last_progress = ~0ull;
  while (now_s() < deadline) {
    std::uint64_t outstanding = 0, progress = 0;
    for (const auto& h : hosts) h->pump();
    for (const auto& h : hosts) {
      outstanding += h->outstanding();
      progress += h->progress();
    }
    if (progress == last_progress) {
      if (outstanding == 0) return true;
      // Idle but not done: wait for a datagram or the next ARQ timer tick.
      ::poll(fds.data(), fds.size(), 1);
    }
    last_progress = progress;
  }
  return false;
}

/// Every node's checkable final state, read off the shard that hosts it.
std::vector<core::member_state> members(const cluster& hosts) {
  std::vector<core::member_state> out;
  for (const auto& h : hosts) {
    for (const node_id v : h->local_nodes()) {
      const core::node& nd = h->at(v);
      core::member_state m;
      m.id = v;
      m.status = nd.status();
      m.next = nd.next();
      m.has_deferred = nd.has_deferred();
      m.has_pending = nd.pending_queue_depth() != 0;
      m.more_empty = nd.more().empty();
      m.unaware_empty = nd.unaware().empty();
      m.done.assign(nd.done().begin(), nd.done().end());
      std::sort(m.done.begin(), m.done.end());
      out.push_back(std::move(m));
    }
  }
  return out;
}

class service_workload final : public workload {
 public:
  service_workload(const run_options& opt, span_log& log, run_result& out)
      : seed_(opt.seed),
        n_(opt.toy ? 60 : 250),
        gen_("random:" + std::to_string(n_) + ":" + std::to_string(2 * n_) +
             ":" + std::to_string(opt.seed)),
        log_(&log),
        out_(&out) {
    cfg_.algo = core::variant::generic;
  }

  op_times op(std::uint64_t id, bool traced) override;

 private:
  void record_layers(const cluster& hosts);

  std::uint64_t seed_;
  std::size_t n_;
  std::string gen_;
  core::config cfg_;
  span_log* log_;
  run_result* out_;
};

op_times service_workload::op(std::uint64_t id, bool traced) {
  metrics& layers = out_->layers;
  op_times t;
  ++out_->attempted;
  // Declared before the hosts, which keep pointers to the graph.
  net::genspec_result gen;
  std::vector<std::vector<node_id>> comps;
  cluster hosts;

  {
    scoped_span setup(*log_, "setup", id);
    {
      scoped_span s(*log_, "graph.generate", id);
      gen = net::parse_genspec(gen_);
      if (traced) layers.add("graph.generate_s", "s", s.close());
    }
    {
      scoped_span s(*log_, "graph.components", id);
      comps = gen.graph.weak_components();
      if (traced) layers.add("graph.components_s", "s", s.close());
    }
    {
      scoped_span s(*log_, "net.build", id);
      std::vector<std::uint16_t> ports;
      for (std::size_t i = 0; i < shards; ++i) {
        hosts.push_back(std::make_unique<net::node_host>(gen.graph, cfg_, i,
                                                         shards, seed_));
        ports.push_back(hosts.back()->port());
      }
      for (const auto& h : hosts) h->set_peers(ports);
      if (traced) layers.add("net.build_s", "s", s.close());
    }
    t.setup_s = setup.close();
    t.layers_s += log_->covered(id, setup.index());
  }

  {
    scoped_span discover(*log_, "discover", id);
    bool converged = false;
    {
      scoped_span s(*log_, "net.converge", id);
      for (const auto& h : hosts) h->start();
      converged = converge(hosts, now_s() + cluster_deadline_s);
      t.complete = converged;
      if (traced) layers.add("net.converge_s", "s", s.close());
    }
    {
      scoped_span s(*log_, "core.check", id);
      const core::check_report rep =
          core::check_membership(members(hosts), comps, cfg_.algo);
      if (!converged || !rep.ok()) {
        ++out_->failed;
        note_failure(converged ? "service cluster: " + rep.to_string()
                               : "service cluster did not converge");
      }
      if (traced) layers.add("core.check_s", "s", s.close());
    }
    t.discover_s = discover.close();
    t.layers_s += log_->covered(id, discover.index());
  }

  if (traced) {
    record_layers(hosts);
  } else {
    std::uint64_t msgs = 0;
    for (const auto& h : hosts) msgs += h->net().statistics().total_messages();
    out_->e2e.add("msgs_per_node", "count",
                  static_cast<double>(msgs) / static_cast<double>(n_));
  }

  scoped_span teardown(*log_, "teardown", id);
  hosts.clear();
  return t;
}

void service_workload::record_layers(const cluster& hosts) {
  metrics& m = out_->layers;
  double msgs = 0, datagrams = 0, wire_bytes = 0, retransmits = 0,
         decode_errors = 0;
  std::map<std::string, double, std::less<>> by_type;
  for (const auto& h : hosts) {
    const sim::stats& st = h->net().statistics();
    msgs += static_cast<double>(st.total_messages());
    for (const auto& [type, ts] : st.by_type())
      by_type[type] += static_cast<double>(ts.count);
    datagrams += static_cast<double>(h->transport().stats().datagrams_sent);
    wire_bytes += static_cast<double>(h->net().wire_bytes_sent());
    retransmits += static_cast<double>(h->arq().stats().retransmits);
    decode_errors += static_cast<double>(h->decode_errors());
  }
  m.add("net.datagrams_per_msg", "ratio", msgs > 0 ? datagrams / msgs : 0.0);
  m.add("net.wire_bytes_per_msg", "bytes", msgs > 0 ? wire_bytes / msgs : 0.0);
  m.add("net.retransmits", "count", retransmits);
  m.add("net.decode_errors", "count", decode_errors);
  for (const auto& [type, count] : by_type)
    m.add("core.msgs." + type, "count", count);
}

}  // namespace

std::unique_ptr<workload> make_service_workload(const run_options& opt,
                                                span_log& log,
                                                run_result& out) {
  if (opt.workload != "service_loopback") return nullptr;
  return std::make_unique<service_workload>(opt, log, out);
}

}  // namespace perfbench

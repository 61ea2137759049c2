#include "core/runner.h"

#include <algorithm>
#include <stdexcept>

#include "common/bitmath.h"
#include "core/checker.h"

namespace asyncrd::core {

discovery_run::discovery_run(const graph::digraph& g, config cfg,
                             sim::scheduler& sched)
    : cfg_(cfg), net_(sched) {
  // The merge tracker sits between the nodes and any user trace sink for
  // the whole run; a trace passed in via cfg becomes its forward target.
  merge_tracker_.user = cfg_.trace;
  cfg_.trace = &merge_tracker_;
  // g.nodes() is ascending, and every generator hands out ids 0..n-1, so
  // the network's slot indices coincide with ids (the dense fast path);
  // arbitrary id sets still work through the hash fallback.
  const std::vector<node_id> ids = g.nodes();
  graph::component_sizes sizes;  // aligned with ids
  if (cfg_.algo == variant::bounded) sizes = g.weak_component_sizes();
  net_.reserve_nodes(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const node_id v = ids[i];
    const std::size_t csize =
        cfg_.algo == variant::bounded ? sizes[i] : std::size_t{0};
    net_.add_node(v, std::make_unique<node>(v, cfg_, g.out(v), csize));
  }
  if (g.node_count() > 2) net_.set_id_bits(ceil_log2(g.node_count()));
}

node& discovery_run::at(node_id id) {
  auto* p = dynamic_cast<node*>(net_.find(id));
  if (p == nullptr) throw std::invalid_argument("unknown node id");
  return *p;
}

const node& discovery_run::at(node_id id) const {
  const auto* p = dynamic_cast<const node*>(net_.find(id));
  if (p == nullptr) throw std::invalid_argument("unknown node id");
  return *p;
}

void discovery_run::enable_chaos(const sim::fault_plan& plan,
                                 sim::reliable_link_config link_cfg) {
  if (rl_ != nullptr) throw std::logic_error("enable_chaos called twice");
  net_.set_fault_plan(plan);
  rl_ = std::make_unique<sim::reliable_link_layer>(net_, link_cfg);
  net_.set_link_adapter(rl_.get());
}

void discovery_run::wake_all() {
  for (const node_id v : net_.node_ids()) net_.wake(v);
}

sim::run_result discovery_run::run(std::uint64_t max_events) {
  return net_.run(max_events);
}

void discovery_run::add_node_dynamic(node_id id,
                                     flat_set<node_id> initial_local) {
  // "there is no difference between a node joining the system at a certain
  // time and a node that wakes up at that time" (§6).
  net_.add_node(id, std::make_unique<node>(id, cfg_, std::move(initial_local),
                                           std::size_t{0}));
  net_.wake(id);
}

void discovery_run::add_link_dynamic(node_id u, node_id v) {
  at(u).add_link(net_, v);
}

void discovery_run::probe(node_id u) { at(u).initiate_probe(net_); }

std::size_t discovery_run::chain_length(node_id v, std::size_t max_hops) const {
  std::size_t hops = 0;
  node_id cur = v;
  while (hops < max_hops) {
    const auto* p = dynamic_cast<const node*>(net_.find(cur));
    if (p == nullptr) break;
    const node_id nxt = p->next();
    if (nxt == invalid_node || nxt == cur) break;
    ++hops;
    cur = nxt;
  }
  return hops;
}

std::vector<sim::memory_part> discovery_run::memory_parts() const {
  std::vector<sim::memory_part> parts = net_.memory_parts();
  std::size_t nodes = 0;
  for (const node_id v : net_.node_ids()) nodes += at(v).memory_bytes();
  parts.push_back({"nodes", nodes});
  parts.push_back({"reliable_links", rl_ ? rl_->memory_bytes() : 0});
  parts.push_back(
      {"pool_live", static_cast<std::size_t>(std::max<std::int64_t>(
                        sim::pool_detail::stats().live_bytes, 0))});
  return parts;
}

std::vector<node_id> discovery_run::leaders() const {
  std::vector<node_id> out;
  for (const node_id v : net_.node_ids())
    if (at(v).is_leader()) out.push_back(v);
  return out;
}

run_summary run_discovery(const graph::digraph& g, variant algo,
                          std::uint64_t seed, trace_sink* trace) {
  std::unique_ptr<sim::scheduler> sched;
  if (seed == 0)
    sched = std::make_unique<sim::unit_delay_scheduler>();
  else
    sched = std::make_unique<sim::random_delay_scheduler>(seed);

  config cfg;
  cfg.algo = algo;
  cfg.trace = trace;
  discovery_run run(g, cfg, *sched);
  run.wake_all();
  const sim::run_result r = run.run();

  run_summary s;
  s.messages = run.statistics().total_messages();
  s.bits = run.statistics().total_bits();
  s.events = r.events_processed;
  s.completion_time = run.net().now();
  s.wall_ms = run.net().timing().wall_ms();
  s.by_type = run.statistics().by_type();
  s.leaders = run.leaders();
  s.completed = r.completed;
  s.violations = check_final_state(run, g).violations;
  return s;
}

}  // namespace asyncrd::core

#include "baselines/flooding.h"

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "common/bitmath.h"
#include "sim/network.h"

namespace asyncrd::baselines {

namespace {

struct flood_msg final : sim::message {
  explicit flood_msg(std::vector<node_id> v) : ids(std::move(v)) {}
  std::vector<node_id> ids;

  std::string_view type_name() const noexcept override { return "flood"; }
  std::size_t id_fields() const noexcept override { return ids.size(); }
};

class flood_process final : public sim::process {
 public:
  flood_process(node_id self, const flat_set<node_id>& neighbors)
      : self_(self), ids_(neighbors.begin(), neighbors.end()) {
    ids_.insert(self_);
  }

  void on_wake(sim::context& ctx) override {
    // Announce everything we know to everyone we know.
    broadcast(ctx, {ids_.begin(), ids_.end()});
  }

  void on_message(sim::context& ctx, node_id from,
                  const sim::message_ptr& m) override {
    const auto& fm = static_cast<const flood_msg&>(*m);
    std::vector<node_id> fresh;
    if (ids_.insert(from).second) fresh.push_back(from);
    for (const node_id v : fm.ids)
      if (ids_.insert(v).second) fresh.push_back(v);
    if (!fresh.empty()) broadcast(ctx, fresh);
  }

  const std::set<node_id>& known() const noexcept { return ids_; }

 private:
  void broadcast(sim::context& ctx, std::vector<node_id> delta) {
    auto msg = sim::make_message<flood_msg>(std::move(delta));
    for (const node_id v : ids_)
      if (v != self_) ctx.send(v, msg);
  }

  node_id self_;
  std::set<node_id> ids_;
};

}  // namespace

baseline_result run_flooding(const graph::digraph& g, std::uint64_t seed) {
  std::unique_ptr<sim::scheduler> sched;
  if (seed == 0)
    sched = std::make_unique<sim::unit_delay_scheduler>();
  else
    sched = std::make_unique<sim::random_delay_scheduler>(seed);

  sim::network net(*sched);
  for (const node_id v : g.nodes())
    net.add_node(v, std::make_unique<flood_process>(v, g.out(v)));
  if (g.node_count() > 2) net.set_id_bits(ceil_log2(g.node_count()));
  for (const node_id v : g.nodes()) net.wake(v);

  baseline_result r;
  const sim::run_result rr = net.run();
  r.messages = net.statistics().total_messages();
  r.bits = net.statistics().total_bits();
  r.converged = rr.completed;
  for (const auto& comp : g.weak_components()) {
    const std::set<node_id> expected(comp.begin(), comp.end());
    for (const node_id v : comp) {
      const auto* p = dynamic_cast<const flood_process*>(net.find(v));
      if (p == nullptr || p->known() != expected) r.converged = false;
    }
  }
  return r;
}

}  // namespace asyncrd::baselines

#include "baselines/name_dropper.h"

#include <map>
#include <set>
#include <vector>

#include "common/bitmath.h"
#include "common/rng.h"

namespace asyncrd::baselines {

baseline_result run_name_dropper(const graph::digraph& g, std::uint64_t seed,
                                 std::uint64_t max_rounds) {
  rng r(seed);
  const std::size_t id_bits = ceil_log2(std::max<std::size_t>(g.node_count(), 2));

  // state[v] = v's current pointer set Gamma(v) (not counting v itself).
  std::map<node_id, std::set<node_id>> state;
  for (const node_id v : g.nodes()) {
    state[v].insert(g.out(v).begin(), g.out(v).end());
    state[v].erase(v);
  }

  // Target: each node's set = its component minus itself.
  std::map<node_id, const std::vector<node_id>*> component_of;
  const auto comps = g.weak_components();
  for (const auto& comp : comps)
    for (const node_id v : comp) component_of[v] = &comp;

  const auto converged = [&]() {
    for (const auto& [v, s] : state)
      if (s.size() + 1 != component_of.at(v)->size()) return false;
    return true;
  };

  baseline_result res;
  while (!converged() && res.rounds < max_rounds) {
    ++res.rounds;
    // Synchronous round: all sends computed against the start-of-round
    // state, applied together afterwards.
    std::vector<std::pair<node_id, std::vector<node_id>>> inboxes;
    for (const auto& [v, s] : state) {
      if (s.empty()) continue;
      auto it = s.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(r.below(s.size())));
      std::vector<node_id> payload(s.begin(), s.end());
      payload.push_back(v);  // name-dropping: the sender introduces itself
      res.messages += 1;
      res.bits += payload.size() * id_bits;
      inboxes.emplace_back(*it, std::move(payload));
    }
    for (auto& [to, payload] : inboxes) {
      auto& dst = state[to];
      for (const node_id v : payload)
        if (v != to) dst.insert(v);
    }
  }
  res.converged = converged();
  return res;
}

}  // namespace asyncrd::baselines

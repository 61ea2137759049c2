#include "baselines/pointer_doubling.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/bitmath.h"

namespace asyncrd::baselines {

baseline_result run_pointer_doubling(const graph::digraph& g,
                                     std::uint64_t max_rounds) {
  const std::size_t id_bits = ceil_log2(std::max<std::size_t>(g.node_count(), 2));
  baseline_result res;

  struct nstate {
    node_id candidate;
    std::set<node_id> contacts;  // E0 out-neighbors + heard-from
    std::set<node_id> known;     // all ids ever seen
  };
  std::map<node_id, nstate> st;
  for (const node_id v : g.nodes()) {
    nstate s;
    s.contacts.insert(g.out(v).begin(), g.out(v).end());
    s.known = s.contacts;
    s.known.insert(v);
    s.candidate = *s.known.rbegin();
    st[v] = std::move(s);
  }

  // --- Phase 1: propagate the maximum id.
  bool changed = true;
  while (changed && res.rounds < max_rounds) {
    ++res.rounds;
    changed = false;
    std::vector<std::tuple<node_id, node_id, node_id>> mail;  // from,to,cand
    for (const auto& [v, s] : st)
      for (const node_id u : s.contacts) {
        mail.emplace_back(v, u, s.candidate);
        res.messages += 1;
        res.bits += id_bits;
      }
    for (const auto& [from, to, cand] : mail) {
      nstate& s = st[to];
      if (s.contacts.insert(from).second) changed = true;
      if (s.known.insert(from).second) changed = true;
      if (s.known.insert(cand).second) changed = true;
      if (cand > s.candidate) {
        s.candidate = cand;
        changed = true;
      }
      if (from > s.candidate) {
        s.candidate = from;
        changed = true;
      }
    }
  }

  // --- Phase 2: convergecast full knowledge to the candidate, then
  // broadcast the census back.
  ++res.rounds;
  for (const auto& [v, s] : st) {
    if (s.candidate == v) continue;
    res.messages += 1;
    res.bits += s.known.size() * id_bits;
  }
  std::map<node_id, std::set<node_id>> census;
  for (const auto& [v, s] : st) census[s.candidate].insert(s.known.begin(),
                                                           s.known.end());
  ++res.rounds;
  for (const auto& [leader, ids] : census) {
    for (const node_id v : ids) {
      if (v == leader) continue;
      res.messages += 1;
      res.bits += ids.size() * id_bits;
    }
  }

  // Verify: per component, all candidates agree on the max id and the
  // leader's census covers the component.
  res.converged = true;
  for (const auto& comp : g.weak_components()) {
    const node_id max_id = *std::max_element(comp.begin(), comp.end());
    for (const node_id v : comp)
      if (st[v].candidate != max_id) res.converged = false;
    const std::set<node_id> expected(comp.begin(), comp.end());
    std::set<node_id> have = census[max_id];
    have.insert(max_id);
    for (const node_id v : expected)
      if (!have.contains(v)) res.converged = false;
  }
  return res;
}

}  // namespace asyncrd::baselines

#include "baselines/dfs_election.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/bitmath.h"

namespace asyncrd::baselines {

baseline_result run_dfs_election(const graph::digraph& g) {
  baseline_result res;
  if (g.node_count() == 0) {
    res.converged = true;
    return res;
  }
  if (!g.is_strongly_connected()) return res;  // precondition violated

  const std::size_t id_bits = ceil_log2(std::max<std::size_t>(g.node_count(), 2));
  const auto nodes = g.nodes();
  const node_id start = *std::min_element(nodes.begin(), nodes.end());

  // Token DFS: each traversal of an edge is one message carrying the token
  // (the token itself carries the visited set; we charge one id per hop for
  // the incremental update, which is what a practical implementation ships).
  std::set<node_id> visited;
  std::vector<node_id> stack{start};
  std::map<node_id, flat_set<node_id>::const_iterator> cursor;
  visited.insert(start);
  while (!stack.empty()) {
    const node_id v = stack.back();
    auto it = cursor.contains(v) ? cursor[v] : g.out(v).begin();
    bool descended = false;
    while (it != g.out(v).end()) {
      const node_id w = *it++;
      if (!visited.contains(w)) {
        cursor[v] = it;
        visited.insert(w);
        stack.push_back(w);
        res.messages += 1;  // token forward
        res.bits += id_bits;
        descended = true;
        break;
      }
    }
    if (!descended) {
      cursor[v] = it;
      stack.pop_back();
      if (!stack.empty()) {
        res.messages += 1;  // token backtrack (strong connectivity lets the
        res.bits += id_bits;  // token return via a known route)
      }
    }
  }

  // Election result: max id; initiator informs every node directly.
  for (const node_id v : nodes) {
    if (v == start) continue;
    res.messages += 1;
    res.bits += id_bits;
  }
  res.converged = visited.size() == g.node_count();
  return res;
}

}  // namespace asyncrd::baselines

#include "graph/digraph.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <stack>
#include <stdexcept>

namespace asyncrd::graph {

std::size_t component_sizes::at(node_id v) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), v);
  if (it == ids_.end() || *it != v)
    throw std::out_of_range("component_sizes::at: unknown node id");
  return sizes_[static_cast<std::size_t>(it - ids_.begin())];
}

std::uint32_t digraph::intern(node_id v) {
  const std::uint32_t found = slot_.find(v);
  if (found != flat_u64_map::npos) return found;
  const auto slot = static_cast<std::uint32_t>(ids_.size());
  slot_.insert(v, slot);
  ids_.push_back(v);
  out_.emplace_back();
  return slot;
}

void digraph::add_node(node_id v) { intern(v); }

void digraph::add_edge(node_id u, node_id v) {
  const std::uint32_t su = intern(u);
  if (u == v) return;
  intern(v);
  if (out_[su].insert(v)) ++edge_count_;
}

bool digraph::has_edge(node_id u, node_id v) const {
  const std::uint32_t su = slot_.find(u);
  return su != flat_u64_map::npos && out_[su].contains(v);
}

const flat_set<node_id>& digraph::out(node_id v) const {
  static const flat_set<node_id> empty;
  const std::uint32_t s = slot_.find(v);
  return s == flat_u64_map::npos ? empty : out_[s];
}

std::vector<node_id> digraph::nodes() const {
  std::vector<node_id> out = ids_;
  if (!std::is_sorted(out.begin(), out.end()))
    std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint32_t> digraph::slots_by_id() const {
  std::vector<std::uint32_t> by_id(ids_.size());
  std::iota(by_id.begin(), by_id.end(), std::uint32_t{0});
  if (std::is_sorted(ids_.begin(), ids_.end())) return by_id;
  // Sort (id, slot) packed into one word: a plain integer sort.
  std::vector<std::uint64_t> keyed(ids_.size());
  for (const std::uint32_t s : by_id)
    keyed[s] = (std::uint64_t{ids_[s]} << 32) | s;
  std::sort(keyed.begin(), keyed.end());
  for (std::size_t i = 0; i < keyed.size(); ++i)
    by_id[i] = static_cast<std::uint32_t>(keyed[i]);
  return by_id;
}

std::vector<std::uint32_t> digraph::weak_roots(
    const std::vector<std::uint32_t>& by_id) const {
  // Union-find over the undirected shadow of the graph, on slot indices.
  std::vector<std::uint32_t> parent(ids_.size());
  std::iota(parent.begin(), parent.end(), std::uint32_t{0});
  const auto find = [&parent](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  };
  for (const std::uint32_t su : by_id)
    for (const node_id v : out_[su]) {
      const std::uint32_t ru = find(su);
      parent[ru] = find(slot_.find(v));
    }
  for (std::uint32_t s = 0; s < parent.size(); ++s) parent[s] = find(s);
  return parent;
}

std::vector<std::vector<node_id>> digraph::weak_components() const {
  const std::vector<std::uint32_t> by_id = slots_by_id();
  const std::vector<std::uint32_t> root = weak_roots(by_id);
  // Roots met in ascending id order number the components; members met in
  // ascending id order arrive sorted.
  std::vector<std::uint32_t> comp_of_root(ids_.size());
  std::vector<std::vector<node_id>> out;
  for (const std::uint32_t s : by_id) {
    if (root[s] != s) continue;
    comp_of_root[s] = static_cast<std::uint32_t>(out.size());
    out.emplace_back();
  }
  for (const std::uint32_t s : by_id)
    out[comp_of_root[root[s]]].push_back(ids_[s]);
  return out;
}

bool digraph::is_weakly_connected() const {
  return ids_.size() <= 1 || weak_components().size() == 1;
}

std::vector<std::vector<node_id>> digraph::strong_components() const {
  // Iterative Tarjan SCC.
  std::map<node_id, std::size_t> index, lowlink;
  std::set<node_id> on_stack;
  std::vector<node_id> scc_stack;
  std::vector<std::vector<node_id>> result;
  std::size_t next_index = 0;

  struct frame {
    node_id v;
    flat_set<node_id>::const_iterator it;
  };

  for (const node_id start : nodes()) {
    if (index.contains(start)) continue;
    std::stack<frame> call;
    index[start] = lowlink[start] = next_index++;
    scc_stack.push_back(start);
    on_stack.insert(start);
    call.push({start, out(start).begin()});

    while (!call.empty()) {
      frame& f = call.top();
      if (f.it != out(f.v).end()) {
        const node_id w = *f.it++;
        if (!index.contains(w)) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          on_stack.insert(w);
          call.push({w, out(w).begin()});
        } else if (on_stack.contains(w)) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
      } else {
        const node_id v = f.v;
        call.pop();
        if (!call.empty())
          lowlink[call.top().v] = std::min(lowlink[call.top().v], lowlink[v]);
        if (lowlink[v] == index[v]) {
          std::vector<node_id> comp;
          for (;;) {
            const node_id w = scc_stack.back();
            scc_stack.pop_back();
            on_stack.erase(w);
            comp.push_back(w);
            if (w == v) break;
          }
          std::sort(comp.begin(), comp.end());
          result.push_back(std::move(comp));
        }
      }
    }
  }
  return result;
}

bool digraph::is_strongly_connected() const {
  return ids_.size() <= 1 || strong_components().size() == 1;
}

component_sizes digraph::weak_component_sizes() const {
  const std::vector<std::uint32_t> by_id = slots_by_id();
  const std::vector<std::uint32_t> root = weak_roots(by_id);
  std::vector<std::size_t> count(ids_.size(), 0);
  for (const std::uint32_t r : root) ++count[r];
  component_sizes cs;
  cs.ids_.reserve(by_id.size());
  cs.sizes_.reserve(by_id.size());
  for (const std::uint32_t s : by_id) {
    cs.ids_.push_back(ids_[s]);
    cs.sizes_.push_back(count[root[s]]);
  }
  return cs;
}

}  // namespace asyncrd::graph

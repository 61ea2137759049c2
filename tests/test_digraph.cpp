#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "graph/digraph.h"

namespace asyncrd {
namespace {

using graph::digraph;

using reference_adj = std::map<node_id, std::set<node_id>>;

/// The std::map implementation digraph::weak_components replaced, kept as
/// the reference: union-find over a map parent table, edges linked in
/// ascending (u, v) order with root(u) placed under root(v), components
/// ordered by root id.
std::vector<std::vector<node_id>> reference_weak_components(
    const reference_adj& adj) {
  std::map<node_id, node_id> parent;
  for (const auto& [v, outs] : adj) parent[v] = v;

  const auto find = [&](node_id x) {
    node_id root = x;
    while (parent[root] != root) root = parent[root];
    while (parent[x] != root) {
      const node_id next = parent[x];
      parent[x] = root;
      x = next;
    }
    return root;
  };

  for (const auto& [u, outs] : adj)
    for (const node_id v : outs) parent[find(u)] = find(v);

  std::map<node_id, std::vector<node_id>> groups;
  for (const auto& [v, outs] : adj) groups[find(v)].push_back(v);

  std::vector<std::vector<node_id>> out;
  for (auto& [root, members] : groups) {
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  return out;
}

/// A random graph with shuffled sparse ids (some next to the largest valid
/// id), isolated nodes, self-loops and duplicate edges, built in the same
/// random order into a digraph and into the reference adjacency map.
void random_sparse_graph(std::uint64_t seed, digraph& g, reference_adj& ref) {
  rng r(seed);
  const std::size_t n = 1 + static_cast<std::size_t>(r.below(120));
  std::set<node_id> pool;
  while (pool.size() < n) {
    switch (r.below(3)) {
      case 0: pool.insert(static_cast<node_id>(r.below(4 * n))); break;
      case 1: pool.insert(static_cast<node_id>(r.below(invalid_node))); break;
      default:
        pool.insert(invalid_node - 1 - static_cast<node_id>(r.below(8)));
    }
  }
  std::vector<node_id> ids(pool.begin(), pool.end());
  r.shuffle(ids);
  const auto pick = [&] { return ids[static_cast<std::size_t>(r.below(n))]; };
  std::vector<std::pair<node_id, node_id>> edges;
  const std::size_t m = static_cast<std::size_t>(r.below(2 * n + 1));
  for (std::size_t i = 0; i < m; ++i) {
    const node_id u = pick();
    const node_id v = r.chance(0.05) ? u : pick();  // self-loop
    g.add_edge(u, v);
    ref[v];
    if (u != v) ref[u].insert(v);
    edges.emplace_back(u, v);
    if (r.chance(0.1)) {  // duplicate of an earlier edge
      const auto& [a, b] =
          edges[static_cast<std::size_t>(r.below(edges.size()))];
      g.add_edge(a, b);
    }
    if (r.chance(0.2)) {  // isolated node (or a no-op re-add)
      const node_id w = pick();
      g.add_node(w);
      ref[w];
    }
  }
}

TEST(Digraph, AddNodesAndEdges) {
  digraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(2, 1));
  EXPECT_TRUE(g.has_node(3));
  EXPECT_FALSE(g.has_node(4));
}

TEST(Digraph, SelfLoopsIgnored) {
  digraph g;
  g.add_edge(1, 1);
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Digraph, DuplicateEdgesIgnored) {
  digraph g;
  g.add_edge(1, 2);
  g.add_edge(1, 2);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Digraph, OutNeighborhood) {
  digraph g;
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  EXPECT_EQ(g.out(1).size(), 2u);
  EXPECT_TRUE(g.out(1).contains(3));
  EXPECT_TRUE(g.out(2).empty());
  EXPECT_TRUE(g.out(99).empty());  // unknown node: empty view
}

TEST(Digraph, WeakComponentsIgnoreDirection) {
  digraph g;
  g.add_edge(1, 2);
  g.add_edge(3, 2);  // 1,2,3 weakly connected despite opposing arrows
  g.add_edge(4, 5);
  g.add_node(6);
  const auto comps = g.weak_components();
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], (std::vector<node_id>{1, 2, 3}));
  EXPECT_EQ(comps[1], (std::vector<node_id>{4, 5}));
  EXPECT_EQ(comps[2], (std::vector<node_id>{6}));
}

TEST(Digraph, IsWeaklyConnected) {
  digraph g;
  g.add_edge(1, 2);
  EXPECT_TRUE(g.is_weakly_connected());
  g.add_node(9);
  EXPECT_FALSE(g.is_weakly_connected());
  digraph empty;
  EXPECT_TRUE(empty.is_weakly_connected());
}

TEST(Digraph, StrongComponentsCycleVsDag) {
  digraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 1);  // 1-2-3 cycle
  g.add_edge(3, 4);  // 4 hangs off
  const auto sccs = g.strong_components();
  ASSERT_EQ(sccs.size(), 2u);
  bool found_cycle = false;
  for (const auto& c : sccs)
    if (c == std::vector<node_id>{1, 2, 3}) found_cycle = true;
  EXPECT_TRUE(found_cycle);
  EXPECT_FALSE(g.is_strongly_connected());
}

TEST(Digraph, StronglyConnectedRing) {
  digraph g;
  for (node_id v = 0; v < 5; ++v) g.add_edge(v, (v + 1) % 5);
  EXPECT_TRUE(g.is_strongly_connected());
}

TEST(Digraph, WeakComponentSizes) {
  digraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_node(7);
  const auto sizes = g.weak_component_sizes();
  EXPECT_EQ(sizes.at(1), 3u);
  EXPECT_EQ(sizes.at(3), 3u);
  EXPECT_EQ(sizes.at(7), 1u);
}

TEST(Digraph, LargeSccIterativeTarjanDoesNotOverflow) {
  // A long path with a back edge: one big SCC; exercises the iterative
  // implementation with deep nesting.
  digraph g;
  const node_id n = 50'000;
  for (node_id v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  g.add_edge(n - 1, 0);
  EXPECT_TRUE(g.is_strongly_connected());
}

TEST(Digraph, OutNeighborhoodsMatchReferenceOnSparseIds) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    digraph g;
    reference_adj ref;
    random_sparse_graph(seed, g, ref);
    std::vector<node_id> ref_nodes;
    std::size_t ref_edges = 0;
    for (const auto& [v, outs] : ref) {
      ref_nodes.push_back(v);
      ref_edges += outs.size();
      EXPECT_TRUE(g.has_node(v));
      EXPECT_TRUE(std::equal(g.out(v).begin(), g.out(v).end(), outs.begin(),
                             outs.end()))
          << "seed " << seed << " node " << v;
      for (const node_id w : outs) EXPECT_TRUE(g.has_edge(v, w));
      EXPECT_FALSE(g.has_edge(v, v));
    }
    EXPECT_EQ(g.nodes(), ref_nodes) << "seed " << seed;
    EXPECT_EQ(g.node_count(), ref.size());
    EXPECT_EQ(g.edge_count(), ref_edges);
  }
}

TEST(Digraph, WeakComponentsMatchReferenceOrderOnSparseIds) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    digraph g;
    reference_adj ref;
    random_sparse_graph(seed, g, ref);
    const auto want = reference_weak_components(ref);
    // Same components, in the same order: generators repair connectivity
    // by chaining comps[i - 1].front() -> comps[i].front().
    ASSERT_EQ(g.weak_components(), want) << "seed " << seed;
    EXPECT_EQ(g.is_weakly_connected(), want.size() <= 1) << "seed " << seed;

    const auto sizes = g.weak_component_sizes();
    const std::vector<node_id> nodes = g.nodes();
    for (const auto& comp : want)
      for (const node_id v : comp) {
        EXPECT_EQ(sizes.at(v), comp.size());
        const auto i = std::lower_bound(nodes.begin(), nodes.end(), v) -
                       nodes.begin();
        EXPECT_EQ(sizes[static_cast<std::size_t>(i)], comp.size());
      }
  }
}

TEST(Digraph, ComponentSizesRejectUnknownIds) {
  digraph g;
  g.add_edge(1, 2);
  EXPECT_THROW((void)g.weak_component_sizes().at(3), std::out_of_range);
}

}  // namespace
}  // namespace asyncrd

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>

#include "core/runner.h"
#include "graph/topology.h"

namespace asyncrd {
namespace {

TEST(Topology, BinaryTreeShape) {
  const auto g = graph::directed_binary_tree(4);  // T(4): 15 nodes
  EXPECT_EQ(g.node_count(), 15u);
  EXPECT_EQ(g.edge_count(), 14u);
  EXPECT_TRUE(g.is_weakly_connected());
  // Root has two children; leaves have none.
  EXPECT_EQ(g.out(0).size(), 2u);
  EXPECT_TRUE(g.out(14).empty());
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(1, 3));
  EXPECT_TRUE(g.has_edge(1, 4));
}

TEST(Topology, BinaryTreeRejectsZeroLevels) {
  EXPECT_THROW(graph::directed_binary_tree(0), std::invalid_argument);
}

TEST(Topology, BinaryTreePostorderChildrenBeforeParents) {
  const std::size_t levels = 5;
  const auto order = graph::binary_tree_internal_postorder(levels);
  const std::size_t n = (std::size_t{1} << levels) - 1;
  // Internal nodes only: ids with at least one child.
  EXPECT_EQ(order.size(), n / 2);  // 2^(levels-1) - 1 internal nodes
  std::map<node_id, std::size_t> pos;
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const node_id v : order) {
    const std::size_t left = 2 * static_cast<std::size_t>(v) + 1;
    const std::size_t right = left + 1;
    if (pos.contains(static_cast<node_id>(left)))
      EXPECT_LT(pos[static_cast<node_id>(left)], pos[v]);
    if (pos.contains(static_cast<node_id>(right)))
      EXPECT_LT(pos[static_cast<node_id>(right)], pos[v]);
  }
  // The root is released last.
  EXPECT_EQ(order.back(), 0u);
}

TEST(Topology, PathAndStars) {
  const auto p = graph::directed_path(8);
  EXPECT_EQ(p.node_count(), 8u);
  EXPECT_EQ(p.edge_count(), 7u);
  EXPECT_TRUE(p.has_edge(3, 4));
  EXPECT_FALSE(p.has_edge(4, 3));

  const auto so = graph::star_out(6);
  EXPECT_EQ(so.edge_count(), 5u);
  EXPECT_EQ(so.out(0).size(), 5u);

  const auto si = graph::star_in(6);
  EXPECT_EQ(si.edge_count(), 5u);
  EXPECT_TRUE(si.out(0).empty());
  EXPECT_TRUE(si.has_edge(3, 0));
}

TEST(Topology, CliqueAndRing) {
  const auto c = graph::clique(5);
  EXPECT_EQ(c.edge_count(), 20u);
  EXPECT_TRUE(c.is_strongly_connected());

  const auto r = graph::ring(5);
  EXPECT_TRUE(r.is_strongly_connected());
  EXPECT_EQ(r.edge_count(), 10u);  // bidirectional
}

TEST(Topology, RandomWeaklyConnectedInvariants) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto g = graph::random_weakly_connected(60, 40, seed);
    EXPECT_EQ(g.node_count(), 60u);
    EXPECT_TRUE(g.is_weakly_connected()) << "seed " << seed;
    EXPECT_GE(g.edge_count(), 59u);
    EXPECT_LE(g.edge_count(), 99u);
  }
}

TEST(Topology, RandomWeaklyConnectedDeterministicPerSeed) {
  const auto a = graph::random_weakly_connected(40, 30, 7);
  const auto b = graph::random_weakly_connected(40, 30, 7);
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (const node_id v : a.nodes()) EXPECT_EQ(a.out(v), b.out(v));
}

TEST(Topology, ErdosRenyiRepairsConnectivity) {
  // p = 0: pure repair chain; still weakly connected.
  const auto g0 = graph::erdos_renyi_connected(30, 0.0, 3);
  EXPECT_TRUE(g0.is_weakly_connected());
  const auto g1 = graph::erdos_renyi_connected(30, 0.1, 3);
  EXPECT_TRUE(g1.is_weakly_connected());
  EXPECT_GT(g1.edge_count(), g0.edge_count());
}

TEST(Topology, PreferentialAttachmentConnectedAndSized) {
  const auto g = graph::preferential_attachment(50, 2, 11);
  EXPECT_EQ(g.node_count(), 50u);
  EXPECT_TRUE(g.is_weakly_connected());
  // Node i >= 2 links to exactly 2 earlier nodes.
  EXPECT_GE(g.edge_count(), 49u);
}

/// FNV-1a over (node count, edge count, then each node with its ascending
/// out-list), in ascending node order.
std::uint64_t edge_digest(const graph::digraph& g) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(g.node_count());
  mix(g.edge_count());
  for (const node_id v : g.nodes()) {
    mix(v);
    mix(g.out(v).size());
    for (const node_id w : g.out(v)) mix(w);
  }
  return h;
}

TEST(Topology, GeneratorEdgeListsArePinned) {
  // Digests taken from the std::map-based digraph.  The sparse
  // Erdős–Rényi and fanout-1 layered DAG add repair edges between
  // consecutive weak components, so they also pin the component order.
  EXPECT_EQ(edge_digest(graph::random_weakly_connected(2000, 4000, 7)),
            0x524307d0cef75d2full);
  EXPECT_EQ(edge_digest(graph::multi_component(20, 100, 100, 3)),
            0x03a8946c6b1c8fddull);
  EXPECT_EQ(edge_digest(graph::erdos_renyi_connected(300, 0.004, 5)),
            0x6fdf9e027a807990ull);
  EXPECT_EQ(edge_digest(graph::layered_dag(20, 30, 1, 9)),
            0xe7b859534bb81438ull);
  EXPECT_EQ(edge_digest(graph::preferential_attachment(2000, 3, 11)),
            0x18e5fcab1f9654daull);
}

TEST(Topology, MultiComponentHasExactlyParts) {
  const auto g = graph::multi_component(4, 10, 5, 9);
  EXPECT_EQ(g.node_count(), 40u);
  EXPECT_EQ(g.weak_components().size(), 4u);
  for (const auto& comp : g.weak_components()) EXPECT_EQ(comp.size(), 10u);
}

TEST(NewTopologies, HypercubeShape) {
  const auto g = graph::hypercube(5, 3);
  EXPECT_EQ(g.node_count(), 32u);
  EXPECT_EQ(g.edge_count(), 5u * 32u / 2u);  // one orientation per edge
  EXPECT_TRUE(g.is_weakly_connected());
}

TEST(NewTopologies, GridShape) {
  const auto g = graph::grid(4, 5);
  EXPECT_EQ(g.node_count(), 20u);
  EXPECT_EQ(g.edge_count(), 4u * 4u + 3u * 5u);  // right + down edges
  EXPECT_TRUE(g.is_weakly_connected());
}

TEST(NewTopologies, LayeredDagConnectedAndSized) {
  const auto g = graph::layered_dag(5, 6, 2, 7);
  EXPECT_EQ(g.node_count(), 30u);
  EXPECT_TRUE(g.is_weakly_connected());
}

TEST(NewTopologies, BowtieShape) {
  const auto g = graph::bowtie(5);
  EXPECT_EQ(g.node_count(), 10u);
  EXPECT_EQ(g.edge_count(), 2u * 20u + 1u);
  EXPECT_TRUE(g.is_weakly_connected());
}

TEST(NewTopologies, DiscoveryWorksOnAllOfThem) {
  for (const auto variant : {core::variant::generic, core::variant::bounded,
                             core::variant::adhoc}) {
    for (int which = 0; which < 4; ++which) {
      graph::digraph g;
      switch (which) {
        case 0: g = graph::hypercube(5, 1); break;
        case 1: g = graph::grid(5, 6); break;
        case 2: g = graph::layered_dag(4, 5, 2, 3); break;
        case 3: g = graph::bowtie(6); break;
      }
      const auto s = core::run_discovery(g, variant, 5);
      EXPECT_EQ(s.violations, std::vector<std::string>{})
          << "variant " << core::to_string(variant) << " topo " << which;
      EXPECT_TRUE(s.completed);
    }
  }
}

}  // namespace
}  // namespace asyncrd

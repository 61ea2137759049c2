#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "graph/graphio.h"
#include "graph/topology.h"

namespace asyncrd {
namespace {

TEST(GraphIo, ParsesEdgesCommentsAndNodes) {
  std::istringstream in(
      "# a comment\n"
      "\n"
      "0 1\n"
      "  // another comment\n"
      "1 2\n"
      "node 7\n"
      "2 0\n");
  const auto g = graph::read_edge_list(in);
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_TRUE(g.has_node(7));
}

TEST(GraphIo, RejectsMalformedLines) {
  {
    std::istringstream in("0\n");
    EXPECT_THROW(graph::read_edge_list(in), std::runtime_error);
  }
  {
    std::istringstream in("0 1 2\n");
    EXPECT_THROW(graph::read_edge_list(in), std::runtime_error);
  }
  {
    std::istringstream in("abc 1\n");
    EXPECT_THROW(graph::read_edge_list(in), std::runtime_error);
  }
  {
    std::istringstream in("node\n");
    EXPECT_THROW(graph::read_edge_list(in), std::runtime_error);
  }
}

TEST(GraphIo, ErrorMessagesCarryLineNumbers) {
  std::istringstream in("0 1\nbogus\n");
  try {
    graph::read_edge_list(in);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(GraphIo, RoundTripPreservesGraph) {
  const auto g = graph::random_weakly_connected(40, 60, 11);
  std::ostringstream out;
  graph::write_edge_list(g, out);
  std::istringstream in(out.str());
  const auto g2 = graph::read_edge_list(in);
  EXPECT_EQ(g2.node_count(), g.node_count());
  EXPECT_EQ(g2.edge_count(), g.edge_count());
  for (const node_id v : g.nodes()) EXPECT_EQ(g2.out(v), g.out(v));
}

TEST(GraphIo, RoundTripKeepsIsolatedNodes) {
  graph::digraph g;
  g.add_edge(0, 1);
  g.add_node(5);
  std::ostringstream out;
  graph::write_edge_list(g, out);
  std::istringstream in(out.str());
  const auto g2 = graph::read_edge_list(in);
  EXPECT_TRUE(g2.has_node(5));
  EXPECT_EQ(g2.node_count(), 3u);
}

TEST(GraphIo, DotOutputMentionsEveryNodeAndEdge) {
  graph::digraph g;
  g.add_edge(1, 2);
  g.add_node(3);
  const std::string dot = graph::to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n1 -> n2"), std::string::npos);
  EXPECT_NE(dot.find("n3"), std::string::npos);
}

/// Parsing `text` must fail with an error that names `line`.
void expect_parse_error_at(const std::string& text, std::size_t line) {
  std::istringstream in(text);
  try {
    graph::read_edge_list(in);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line)),
              std::string::npos)
        << e.what();
  }
}

TEST(GraphIo, RejectsNegativeIds) {
  // "-1" used to read as 2^64 - 1 and wrap to invalid_node.
  expect_parse_error_at("0 1\n-1 2\n", 2);
  expect_parse_error_at("0 1\n2 -1\n", 2);
  expect_parse_error_at("0 1\nnode -1\n", 2);
}

TEST(GraphIo, RejectsIdsAtOrAboveTheNoNodeSentinel) {
  // 4294967295 is invalid_node, the engine's "no node"; 4294967296 used to
  // wrap to node 0.
  expect_parse_error_at("0 1\n4294967295 1\n", 2);
  expect_parse_error_at("0 1\n4294967296 1\n", 2);
  expect_parse_error_at("0 1\n1 4294967296\n", 2);
  expect_parse_error_at("0 1\nnode 4294967295\n", 2);
  expect_parse_error_at("0 1\nnode 18446744073709551616\n", 2);
}

TEST(GraphIo, AcceptsTheLargestValidId) {
  std::istringstream in("4294967294 0\nnode 4294967293\n");
  const auto g = graph::read_edge_list(in);
  EXPECT_TRUE(g.has_edge(invalid_node - 1, 0));
  EXPECT_TRUE(g.has_node(invalid_node - 2));
  EXPECT_EQ(g.node_count(), 3u);
}

TEST(GraphIo, RoundTripKeepsSinksIsolatedNodesAndLargeGraphs) {
  graph::digraph small;
  small.add_edge(3, 1);  // 1 is a sink: named only as a target
  small.add_edge(invalid_node - 1, 3);
  small.add_node(9);  // isolated
  small.add_node(0);  // isolated, smallest id

  // 20k nodes, plenty of sinks, plus 100 isolated nodes with sparse ids.
  graph::digraph big = graph::random_weakly_connected(20000, 20000, 5);
  for (node_id v = 20000; v < 20100; ++v) big.add_node(7 * v);

  const std::pair<const graph::digraph*, std::size_t> cases[] = {{&small, 2},
                                                                 {&big, 100}};
  for (const auto& [g, isolated] : cases) {
    std::ostringstream out;
    graph::write_edge_list(*g, out);
    const std::string text = out.str();
    std::size_t node_lines = 0;
    for (std::size_t at = text.find("\nnode "); at != std::string::npos;
         at = text.find("\nnode ", at + 1))
      ++node_lines;
    EXPECT_EQ(node_lines, isolated);

    std::istringstream in(text);
    const auto g2 = graph::read_edge_list(in);
    EXPECT_EQ(g2.nodes(), g->nodes());
    EXPECT_EQ(g2.edge_count(), g->edge_count());
    for (const node_id v : g->nodes()) EXPECT_EQ(g2.out(v), g->out(v));
  }
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(graph::read_edge_list_file("/nonexistent/path/g.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace asyncrd

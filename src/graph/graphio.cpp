#include "graph/graphio.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <vector>

namespace asyncrd::graph {

namespace {

bool is_comment_or_blank(const std::string& line) {
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == ' ' || c == '\t' || c == '\r') continue;
    if (c == '#') return true;
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') return true;
    return false;
  }
  return true;  // blank
}

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
  std::ostringstream ss;
  ss << "edge list parse error at line " << line_no << ": " << why;
  throw std::runtime_error(ss.str());
}

/// One node id: decimal digits only, below invalid_node (the engine's "no
/// node" sentinel, which no real node may carry).
node_id parse_id(std::size_t line_no, const std::string& tok) {
  if (!tok.empty() && tok.front() == '-')
    fail(line_no, "node ids are non-negative, got '" + tok + "'");
  const char* const end = tok.data() + tok.size();
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ptr != end || (ec != std::errc{} && ec != std::errc::result_out_of_range))
    fail(line_no, "expected a node id, got '" + tok + "'");
  if (ec == std::errc::result_out_of_range || v >= invalid_node)
    fail(line_no, "node id " + tok + " is out of range (ids are below " +
                      std::to_string(invalid_node) + ")");
  return static_cast<node_id>(v);
}

}  // namespace

digraph read_edge_list(std::istream& in) {
  digraph g;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (is_comment_or_blank(line)) continue;
    std::istringstream ls(line);
    std::string first;
    ls >> first;
    if (first == "node") {
      std::string v;
      if (!(ls >> v)) fail(line_no, "expected node id after 'node'");
      g.add_node(parse_id(line_no, v));
      continue;
    }
    const node_id u = parse_id(line_no, first);
    std::string second;
    if (!(ls >> second)) fail(line_no, "expected destination node id");
    const node_id v = parse_id(line_no, second);
    std::string extra;
    if (ls >> extra) fail(line_no, "trailing token '" + extra + "'");
    g.add_edge(u, v);
  }
  return g;
}

digraph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open graph file: " + path);
  return read_edge_list(in);
}

void write_edge_list(const digraph& g, std::ostream& out) {
  out << "# asyncrd knowledge graph: " << g.node_count() << " nodes, "
      << g.edge_count() << " edges\n";
  const std::vector<node_id> ids = g.nodes();
  // A node with no out-edges needs a `node` line unless an edge names it.
  std::vector<node_id> targets;
  targets.reserve(g.edge_count());
  for (const node_id v : ids)
    targets.insert(targets.end(), g.out(v).begin(), g.out(v).end());
  std::sort(targets.begin(), targets.end());
  for (const node_id v : ids) {
    if (g.out(v).empty() &&
        !std::binary_search(targets.begin(), targets.end(), v))
      out << "node " << v << '\n';
    for (const node_id w : g.out(v)) out << v << ' ' << w << '\n';
  }
}

std::string to_dot(const digraph& g) {
  std::ostringstream ss;
  ss << "digraph knowledge {\n  rankdir=LR;\n  node [shape=circle];\n";
  const std::vector<node_id> ids = g.nodes();
  for (const node_id v : ids) ss << "  n" << v << " [label=\"" << v << "\"];\n";
  for (const node_id v : ids)
    for (const node_id w : g.out(v)) ss << "  n" << v << " -> n" << w << ";\n";
  ss << "}\n";
  return ss.str();
}

}  // namespace asyncrd::graph

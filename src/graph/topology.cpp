#include "graph/topology.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <set>
#include <stdexcept>

#include "common/rng.h"

namespace asyncrd::graph {

digraph directed_binary_tree(std::size_t levels) {
  if (levels == 0) throw std::invalid_argument("levels must be >= 1");
  const std::size_t n = (std::size_t{1} << levels) - 1;
  digraph g;
  for (node_id v = 0; v < n; ++v) {
    g.add_node(v);
    const std::size_t left = 2 * static_cast<std::size_t>(v) + 1;
    const std::size_t right = left + 1;
    if (left < n) g.add_edge(v, static_cast<node_id>(left));
    if (right < n) g.add_edge(v, static_cast<node_id>(right));
  }
  return g;
}

namespace {

void postorder_rec(node_id v, std::size_t n, std::vector<node_id>& out) {
  const std::size_t left = 2 * static_cast<std::size_t>(v) + 1;
  if (left >= n) return;  // leaf
  postorder_rec(static_cast<node_id>(left), n, out);
  if (left + 1 < n) postorder_rec(static_cast<node_id>(left + 1), n, out);
  out.push_back(v);
}

}  // namespace

std::vector<node_id> binary_tree_internal_postorder(std::size_t levels) {
  const std::size_t n = (std::size_t{1} << levels) - 1;
  std::vector<node_id> out;
  if (n >= 3) postorder_rec(0, n, out);
  return out;
}

digraph directed_path(std::size_t n) {
  digraph g;
  for (node_id v = 0; v < n; ++v) {
    g.add_node(v);
    if (v + 1 < n) g.add_edge(v, v + 1);
  }
  return g;
}

digraph star_out(std::size_t n) {
  digraph g;
  g.add_node(0);
  for (node_id v = 1; v < n; ++v) g.add_edge(0, v);
  return g;
}

digraph star_in(std::size_t n) {
  digraph g;
  g.add_node(0);
  for (node_id v = 1; v < n; ++v) g.add_edge(v, 0);
  return g;
}

digraph clique(std::size_t n) {
  digraph g;
  for (node_id u = 0; u < n; ++u) {
    g.add_node(u);
    for (node_id v = 0; v < n; ++v)
      if (u != v) g.add_edge(u, v);
  }
  return g;
}

digraph ring(std::size_t n) {
  digraph g;
  for (node_id v = 0; v < n; ++v) {
    g.add_node(v);
    if (n >= 2) {
      g.add_edge(v, static_cast<node_id>((v + 1) % n));
      g.add_edge(static_cast<node_id>((v + 1) % n), v);
    }
  }
  return g;
}

digraph random_weakly_connected(std::size_t n, std::size_t extra_edges,
                                std::uint64_t seed) {
  if (n == 0) return {};
  rng r(seed);

  std::vector<node_id> label(n);
  std::iota(label.begin(), label.end(), node_id{0});
  r.shuffle(label);

  digraph g;
  g.add_node(label[0]);
  // Random recursive tree with random orientation: weakly connected.
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = static_cast<std::size_t>(r.below(i));
    if (r.chance(0.5))
      g.add_edge(label[i], label[j]);
    else
      g.add_edge(label[j], label[i]);
  }
  std::size_t added = 0;
  std::size_t attempts = 0;
  const std::size_t max_attempts = 20 * (extra_edges + 1) + 100;
  while (added < extra_edges && attempts++ < max_attempts) {
    const node_id u = label[static_cast<std::size_t>(r.below(n))];
    const node_id v = label[static_cast<std::size_t>(r.below(n))];
    if (u == v || g.has_edge(u, v)) continue;
    g.add_edge(u, v);
    ++added;
  }
  return g;
}

digraph erdos_renyi_connected(std::size_t n, double p, std::uint64_t seed) {
  rng r(seed);
  digraph g;
  for (node_id v = 0; v < n; ++v) g.add_node(v);
  for (node_id u = 0; u < n; ++u)
    for (node_id v = 0; v < n; ++v)
      if (u != v && r.chance(p)) g.add_edge(u, v);

  // Repair: chain the weakly connected components with single edges.
  const auto comps = g.weak_components();
  for (std::size_t i = 1; i < comps.size(); ++i)
    g.add_edge(comps[i - 1].front(), comps[i].front());
  return g;
}

digraph preferential_attachment(std::size_t n, std::size_t k,
                                std::uint64_t seed) {
  if (n == 0) return {};
  rng r(seed);
  digraph g;
  g.add_node(0);
  std::vector<node_id> degree_urn{0};  // one entry per incident edge endpoint
  for (node_id v = 1; v < n; ++v) {
    g.add_node(v);
    const std::size_t links = std::min<std::size_t>(k, v);
    std::set<node_id> chosen;
    while (chosen.size() < links) {
      node_id target;
      if (degree_urn.empty() || r.chance(0.25))
        target = static_cast<node_id>(r.below(v));  // uniform fallback mix-in
      else
        target = degree_urn[static_cast<std::size_t>(r.below(degree_urn.size()))];
      if (target == v) continue;
      chosen.insert(target);
    }
    for (const node_id t : chosen) {
      g.add_edge(v, t);
      degree_urn.push_back(v);
      degree_urn.push_back(t);
    }
  }
  return g;
}

digraph hypercube(std::size_t dims, std::uint64_t seed) {
  rng r(seed);
  digraph g;
  const std::size_t n = std::size_t{1} << dims;
  for (node_id v = 0; v < n; ++v) g.add_node(v);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t d = 0; d < dims; ++d) {
      const std::size_t w = v ^ (std::size_t{1} << d);
      if (w < v) continue;  // each undirected edge once
      if (r.chance(0.5))
        g.add_edge(static_cast<node_id>(v), static_cast<node_id>(w));
      else
        g.add_edge(static_cast<node_id>(w), static_cast<node_id>(v));
    }
  }
  return g;
}

digraph grid(std::size_t rows, std::size_t cols) {
  digraph g;
  const auto at = [cols](std::size_t r, std::size_t c) {
    return static_cast<node_id>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      g.add_node(at(r, c));
      if (c + 1 < cols) g.add_edge(at(r, c), at(r, c + 1));
      if (r + 1 < rows) g.add_edge(at(r, c), at(r + 1, c));
    }
  return g;
}

digraph layered_dag(std::size_t layers, std::size_t width, std::size_t fanout,
                    std::uint64_t seed) {
  rng r(seed);
  digraph g;
  const auto at = [width](std::size_t layer, std::size_t i) {
    return static_cast<node_id>(layer * width + i);
  };
  for (std::size_t l = 0; l < layers; ++l)
    for (std::size_t i = 0; i < width; ++i) {
      g.add_node(at(l, i));
      if (l == 0) continue;
      const std::size_t links = std::min<std::size_t>(fanout, width);
      for (std::size_t f = 0; f < links; ++f)
        g.add_edge(at(l - 1, static_cast<std::size_t>(r.below(width))),
                   at(l, i));
    }
  // Repair weak connectivity within each layer pair (random fanout can
  // leave isolated columns).
  const auto comps = g.weak_components();
  for (std::size_t i = 1; i < comps.size(); ++i)
    g.add_edge(comps[i - 1].front(), comps[i].front());
  return g;
}

digraph bowtie(std::size_t k) {
  digraph g;
  for (node_id u = 0; u < k; ++u)
    for (node_id v = 0; v < k; ++v) {
      if (u != v) {
        g.add_edge(u, v);
        g.add_edge(static_cast<node_id>(k + u), static_cast<node_id>(k + v));
      }
    }
  if (k > 0) g.add_edge(0, static_cast<node_id>(k));  // the bridge
  return g;
}

digraph multi_component(std::size_t parts, std::size_t part_n,
                        std::size_t extra_edges_per_part, std::uint64_t seed) {
  digraph g;
  rng r(seed);
  for (std::size_t p = 0; p < parts; ++p) {
    const digraph part =
        random_weakly_connected(part_n, extra_edges_per_part, r.next());
    const node_id base = static_cast<node_id>(p * part_n);
    for (const node_id u : part.nodes()) {
      g.add_node(base + u);
      for (const node_id v : part.out(u)) g.add_edge(base + u, base + v);
    }
  }
  return g;
}

}  // namespace asyncrd::graph

// Directed knowledge graphs (paper §1).
//
// G = (V, E0) where an edge (u -> v) means "u initially knows id(v)".  The
// resource-discovery runner hands each node its out-neighborhood as the
// initial `local` set; the graph itself also provides the connectivity
// queries the spec is phrased in (weakly connected components).
//
// Storage is slot-indexed: each node gets the next dense slot when it is
// first added, an open-addressed table maps id -> slot, and each slot holds
// the node's out-list as a sorted flat_set.  Ids may be arbitrary and
// sparse; every query still answers in ascending id order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/flat_hash.h"
#include "common/flat_set.h"
#include "common/ids.h"

namespace asyncrd::graph {

/// Weakly-connected-component size of every node, aligned with
/// digraph::nodes(): entry i belongs to nodes()[i].
class component_sizes {
 public:
  std::size_t operator[](std::size_t i) const noexcept { return sizes_[i]; }
  /// Size of v's component, by id; throws std::out_of_range if v is not a
  /// node of the graph.
  std::size_t at(node_id v) const;

 private:
  friend class digraph;
  std::vector<node_id> ids_;  // ascending
  std::vector<std::size_t> sizes_;
};

class digraph {
 public:
  /// Adds an isolated node (no-op if present).
  void add_node(node_id v);

  /// Adds edge (u -> v); adds endpoints implicitly.  Self-loops and
  /// duplicate edges are ignored (a node always knows itself; E is a set).
  void add_edge(node_id u, node_id v);

  bool has_node(node_id v) const { return slot_.find(v) != flat_u64_map::npos; }
  bool has_edge(node_id u, node_id v) const;

  std::size_t node_count() const noexcept { return ids_.size(); }
  std::size_t edge_count() const noexcept { return edge_count_; }

  /// Out-neighborhood of v, ascending: the ids v initially knows (empty for
  /// an unknown id).  add_node and add_edge invalidate the reference.
  const flat_set<node_id>& out(node_id v) const;

  /// All nodes, ascending.
  std::vector<node_id> nodes() const;

  /// Weakly connected components (ignoring edge direction), each sorted.
  /// Components come in ascending order of their union-find root, where
  /// edges are linked in ascending (u, v) order and root(u) goes under
  /// root(v); the graph generators' repair edges rely on that order.
  std::vector<std::vector<node_id>> weak_components() const;

  bool is_weakly_connected() const;

  /// Strongly connected components (Tarjan), each sorted.
  std::vector<std::vector<node_id>> strong_components() const;

  bool is_strongly_connected() const;

  /// Component size per node (for the Bounded model, where "every node
  /// knows the number of nodes in its weakly connected component").
  component_sizes weak_component_sizes() const;

 private:
  /// Slot of v, adding v as an isolated node if it is new.
  std::uint32_t intern(node_id v);
  /// Slots ordered by ascending id.
  std::vector<std::uint32_t> slots_by_id() const;
  /// Union-find root slot of every slot, per weak_components' linking rule.
  std::vector<std::uint32_t> weak_roots(
      const std::vector<std::uint32_t>& by_id) const;

  flat_u64_map slot_;                   // id -> slot
  std::vector<node_id> ids_;            // slot -> id
  std::vector<flat_set<node_id>> out_;  // slot -> out-neighborhood
  std::size_t edge_count_ = 0;
};

}  // namespace asyncrd::graph

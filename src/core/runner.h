// Harness that instantiates the algorithm on a knowledge graph, drives the
// simulator, and exposes the pieces benches/tests need.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/node.h"
#include "core/trace.h"
#include "graph/digraph.h"
#include "sim/network.h"
#include "sim/reliable_link.h"
#include "sim/scheduler.h"

namespace asyncrd::core {

/// One resource-discovery execution: owns the network, the shared config,
/// and (via the network) the nodes.
class discovery_run {
 public:
  /// Builds one node per graph vertex, each initialized with its
  /// E0 out-neighborhood.  For variant::bounded every node receives its
  /// weakly-connected-component size (the Bounded model's extra knowledge).
  discovery_run(const graph::digraph& g, config cfg, sim::scheduler& sched);

  discovery_run(const discovery_run&) = delete;
  discovery_run& operator=(const discovery_run&) = delete;

  sim::network& net() noexcept { return net_; }
  const sim::network& net() const noexcept { return net_; }
  const config& cfg() const noexcept { return cfg_; }

  /// Arms (or, with nullptr, disarms) the state-transition trace for the
  /// rest of the execution — nodes consult the shared config on every
  /// transition, so this works after construction (telemetry uses it).
  /// The run keeps its own merge tracker permanently installed and forwards
  /// every transition to `sink`, so merge accounting (below) always works.
  void set_trace(trace_sink* sink) noexcept { merge_tracker_.user = sink; }

  /// Component merges so far: transitions of a node from a leader status to
  /// a non-leader status (paper §4's leader definition).  Every merge
  /// retires exactly one leader, so live components = nodes - merges.
  std::uint64_t merges() const noexcept { return merge_tracker_.merges; }

  /// Live components remaining by merge accounting.
  std::uint64_t components_remaining() const noexcept {
    return net_.node_count() - merge_tracker_.merges;
  }

  /// Length of the next-pointer routing chain starting at `v` (0 when v's
  /// next points nowhere / at itself), capped at `max_hops`.  The series
  /// sampler uses this for pointer-chain hi-water marks; path compression
  /// should keep real chains short (Lemma 5.4's amortization argument).
  std::size_t chain_length(node_id v, std::size_t max_hops = 64) const;

  /// The node object for an id (throws if unknown).
  node& at(node_id id);
  const node& at(node_id id) const;

  /// Arms the chaos transport: installs `plan` on the network and layers
  /// the reliable-delivery adapter above it, so the algorithms run
  /// unmodified on the lossy wire.  Must be called before any traffic;
  /// mutually exclusive with manual mode.
  void enable_chaos(const sim::fault_plan& plan,
                    sim::reliable_link_config link_cfg = {});

  /// The reliable-delivery adapter, or nullptr when chaos is off
  /// (telemetry reads its retransmit/ack counters).
  const sim::reliable_link_layer* reliable_links() const noexcept {
    return rl_.get();
  }

  /// Schedules wake events for every node.
  void wake_all();

  /// Runs to completion (quiescence + scheduler hooks exhausted).
  sim::run_result run(std::uint64_t max_events = sim::network::default_event_cap);

  /// §6 dynamic addition: a brand-new node that knows `initial_local`.
  void add_node_dynamic(node_id id, flat_set<node_id> initial_local);

  /// §6 dynamic addition: new link (u -> v) appears now.
  void add_link_dynamic(node_id u, node_id v);

  /// §4.5.2: node u requests a component snapshot (Ad-hoc).
  void probe(node_id u);

  const sim::stats& statistics() const noexcept { return net_.statistics(); }

  /// Heap bytes the run holds, part by part: the network's parts
  /// (sim::network::memory_parts), then "nodes" (every node object with
  /// its sets and queues), "reliable_links" (the ARQ tables, chaos mode
  /// only) and "pool_live" (message bytes allocated and not yet freed,
  /// process-wide, sim::pool_detail::stats).  Computed from capacities on
  /// demand; for reports.
  std::vector<sim::memory_part> memory_parts() const;

  /// Current leaders (nodes in a leader state), ascending by id.
  std::vector<node_id> leaders() const;

  std::vector<node_id> ids() const { return net_.node_ids(); }

 private:
  /// Permanently installed trace sink: counts leader -> non-leader
  /// transitions (component merges) and forwards everything to the
  /// user-armed sink, so telemetry can trace without losing merge counts.
  struct merge_tracker final : trace_sink {
    void on_transition(node_id n, status_t from, status_t to) override {
      if (is_leader_status(from) && !is_leader_status(to)) ++merges;
      if (user != nullptr) user->on_transition(n, from, to);
    }
    std::uint64_t merges = 0;
    trace_sink* user = nullptr;
  };

  config cfg_;  // nodes keep a pointer into this; must outlive them
  sim::network net_;
  merge_tracker merge_tracker_;
  /// Chaos mode only; declared after net_ so it is destroyed first (the
  /// network holds a non-owning adapter pointer into it).
  std::unique_ptr<sim::reliable_link_layer> rl_;
};

/// Convenience summary used by benches: run a fresh execution end to end.
struct run_summary {
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t events = 0;
  /// Virtual time at quiescence.  Under the unit-delay scheduler this is
  /// the longest message chain, i.e. the execution's time complexity in
  /// the standard asynchronous measure (paper §7 discusses O(T + n)).
  sim::sim_time completion_time = 0;
  /// Host wall-clock time spent in the event loop (sim::run_timing).
  double wall_ms = 0.0;
  /// Per-type message/bit counts (telemetry reports aggregate these).
  std::map<std::string, sim::type_stats, std::less<>> by_type;
  std::vector<node_id> leaders;
  bool completed = false;
  /// The §1.2 checker's verdict on the final state (core/checker.h
  /// check_final_state against g's weak components); empty iff it passed.
  std::vector<std::string> violations;
};

/// Runs `algo` on `g` with uniformly random delays derived from `seed`
/// (seed == 0 selects unit delays), waking all nodes at the start, and
/// checks the final state against the §1.2 specification.
run_summary run_discovery(const graph::digraph& g, variant algo,
                          std::uint64_t seed, trace_sink* trace = nullptr);

}  // namespace asyncrd::core

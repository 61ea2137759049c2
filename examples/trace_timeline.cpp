// Execution timeline viewer: run a small discovery with the transition
// recorder and causal tracer armed, then print what happened, activation by
// activation (each wake or delivery with the sends it made) — the fastest
// way to build intuition for the protocol (and to see Figures 1 and 3-6 in
// action).  The causal tracer also extracts the run's critical path: the
// chain of "this delivery caused these sends" that determined the
// completion time.
//
//   $ ./trace_timeline                   # 6-node demo
//   $ ./trace_timeline 12 42             # n nodes, schedule seed
//   $ ./trace_timeline 12 42 out.json    # also write a Perfetto trace
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "core/checker.h"
#include "core/runner.h"
#include "core/trace.h"
#include "graph/topology.h"
#include "telemetry/critical_path.h"
#include "telemetry/perfetto.h"
#include "telemetry/tracer.h"

int main(int argc, char** argv) {
  using namespace asyncrd;
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 6;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 3;
  const char* trace_path = argc > 3 ? argv[3] : nullptr;

  const auto g = graph::random_weakly_connected(n, n, seed);
  std::cout << "knowledge graph E0 (" << n << " nodes, " << g.edge_count()
            << " edges):\n";
  for (const node_id v : g.nodes()) {
    std::cout << "  " << v << " knows:";
    for (const node_id w : g.out(v)) std::cout << ' ' << w;
    std::cout << '\n';
  }

  sim::random_delay_scheduler sched(seed);
  core::transition_recorder transitions;
  core::config cfg;
  cfg.trace = &transitions;
  core::discovery_run run(g, cfg, sched);
  telemetry::tracer tr(run.net());
  run.net().add_observer(&tr);
  run.wake_all();
  run.run();

  const auto print_activation = [](const telemetry::trace_event& e) {
    std::cout << "t=" << e.at << ' ';
    if (e.what == telemetry::trace_event::kind::wake)
      std::cout << "wake    " << e.to;
    else
      std::cout << "deliver " << e.from << " -> " << e.to << ' ' << e.type;
  };
  constexpr std::size_t max_lines = 400;
  std::cout << "\n--- timeline (" << tr.events().size() << " activations, "
            << tr.sends_observed() << " sends) ---\n";
  for (std::size_t i = 0; i < tr.events().size(); ++i) {
    if (i == max_lines) {
      std::cout << "... (" << tr.events().size() - max_lines
                << " more activations)\n";
      break;
    }
    const telemetry::trace_event& e = tr.events()[i];
    print_activation(e);
    std::cout << "  sends " << e.sends << '\n';
  }

  std::cout << "\n--- state transitions ---\n";
  for (const auto& [edge, count] : transitions.edges())
    std::cout << "  " << core::edge_to_string(edge) << " x" << count << '\n';

  const auto cp = telemetry::extract_critical_path(tr.events());
  std::cout << "\n--- critical path (" << cp.length << " hops, ends at t="
            << cp.makespan << ") ---\n";
  for (const auto& e : cp.chain) {
    std::cout << "  [" << e.lamport << "] ";
    print_activation(e);
    std::cout << '\n';
  }
  const auto fan = telemetry::compute_fanout(tr.events());
  std::cout << "fan-out: mean " << fan.mean_fanout << ", max "
            << fan.max_fanout << '\n';

  if (trace_path != nullptr) {
    std::ofstream out(trace_path);
    telemetry::write_perfetto_trace(out, tr.events(), "trace_timeline");
    std::cout << "[trace] " << trace_path
              << "  (load it in ui.perfetto.dev)\n";
  }

  const node_id leader = run.leaders().front();
  std::cout << "\nleader: " << leader << "  messages: "
            << run.statistics().total_messages() << "  virtual time: "
            << run.net().now() << '\n';

  const auto rep = core::check_final_state(run, g);
  std::cout << (rep.ok() ? "spec check: OK\n" : "spec check: FAILED\n");
  return rep.ok() ? 0 : 1;
}

// Figure 1: the node state-transition diagram.
//
// Reproduction: run all three variants over many randomized executions with
// the transition recorder armed, and print every observed transition with
// its multiplicity, checking the observed set is a subset of the diagram's
// legal edges (as implemented; see trace.cpp for the two paper-typo notes),
// and that every run passes the §1.2 checker.
// Also reports which legal edges were actually exercised — full coverage of
// the diagram is evidence the test workloads reach every protocol corner.
#include <iostream>

#include "bench_report.h"
#include "common/table.h"
#include "core/runner.h"
#include "core/trace.h"
#include "graph/topology.h"

int main(int argc, char** argv) {
  using namespace asyncrd;
  std::cout << "== Figure 1: state-transition diagram validation ==\n\n";

  bench::reporter rep("fig1_transitions", argc, argv);

  core::transition_recorder rec;
  bool all_ok = true;
  const auto run = [&](const graph::digraph& g, core::variant algo,
                       std::uint64_t seed) {
    if (!core::run_discovery(g, algo, seed, &rec).violations.empty())
      all_ok = false;
  };
  for (const auto algo : {core::variant::generic, core::variant::bounded,
                          core::variant::adhoc}) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      run(graph::random_weakly_connected(60, 90, seed * 13), algo, seed);
      run(graph::directed_binary_tree(6), algo, seed + 100);
      run(graph::star_in(40), algo, seed + 200);
    }
  }

  text_table t({"transition", "count", "legal"});
  for (const auto& [edge, count] : rec.edges()) {
    const bool legal = core::transition_recorder::legal_edges().contains(edge);
    all_ok = all_ok && legal;
    rep.add(core::edge_to_string(edge), 0.0, static_cast<double>(count),
            legal ? static_cast<double>(count) : 0.0);
    t.add_row({core::edge_to_string(edge), std::to_string(count),
               legal ? "yes" : "NO"});
  }
  t.print(std::cout);

  std::size_t covered = 0;
  std::cout << "\nlegal edges never observed (uncovered diagram arrows):\n";
  for (const auto& e : core::transition_recorder::legal_edges()) {
    if (rec.edges().contains(e))
      ++covered;
    else
      std::cout << "  " << core::edge_to_string(e) << '\n';
  }
  std::cout << "coverage: " << covered << " / "
            << core::transition_recorder::legal_edges().size()
            << " diagram edges exercised, " << rec.total()
            << " transitions recorded\n";
  rep.note("diagram_edges_covered", static_cast<double>(covered));
  rep.note("diagram_edges_total",
           static_cast<double>(core::transition_recorder::legal_edges().size()));
  rep.note("transitions_recorded", static_cast<double>(rec.total()));
  std::cout << "\npaper: Figure 1 — every observed transition must be an"
               " arrow of the diagram (legal = yes on every row).\n";
  return rep.finish(all_ok);
}

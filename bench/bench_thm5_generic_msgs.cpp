// Theorem 5: the Generic algorithm sends O(n log n) messages.
//
// Reproduction: sweep n over several topology families, run the Generic
// algorithm under randomized asynchrony, and report measured messages
// against n log2 n.  The paper predicts a bounded ratio (who wins: the
// algorithm stays within a constant factor of n log n on every family,
// including the adversarial tree of Theorem 1).
#include <iostream>

#include "bench_report.h"
#include "common/bitmath.h"
#include "common/table.h"
#include "core/runner.h"
#include "graph/topology.h"

int main(int argc, char** argv) {
  using namespace asyncrd;
  std::cout << "== Theorem 5: Generic algorithm, message complexity O(n log n) ==\n\n";

  bench::reporter rep("thm5_generic_msgs", argc, argv);
  text_table t({"topology", "n", "|E0|", "messages", "n log n", "ratio"});
  bool all_ok = true;

  const auto row = [&](const std::string& name, const graph::digraph& g,
                       std::uint64_t seed) {
    const auto s = core::run_discovery(g, core::variant::generic, seed);
    all_ok = all_ok && s.completed && s.violations.empty();
    const double nl = n_log_n(static_cast<double>(g.node_count()));
    rep.add(name, static_cast<double>(g.node_count()),
            static_cast<double>(s.messages), nl);
    rep.merge_types(s.by_type);
    t.add_row({name, std::to_string(g.node_count()),
               std::to_string(g.edge_count()), std::to_string(s.messages),
               fmt_double(nl, 0), fmt_ratio(static_cast<double>(s.messages), nl)});
  };

  for (const std::size_t n : {64, 128, 256, 512, 1024, 2048}) {
    row("random sparse", graph::random_weakly_connected(n, n, 17 + n), 3);
    row("random dense",
        graph::random_weakly_connected(n, n * ceil_log2(n), 29 + n), 5);
    row("path", graph::directed_path(n), 7);
    row("star-in", graph::star_in(n), 11);
  }
  for (const std::size_t levels : {6, 8, 10, 11}) {
    row("binary tree T(" + std::to_string(levels) + ")",
        graph::directed_binary_tree(levels), 13);
  }

  t.print(std::cout);
  std::cout << "\npaper: Theorem 5 — O(n log n); expect the ratio column to"
               " stay bounded by a constant as n grows.\n";
  return rep.finish(all_ok);
}

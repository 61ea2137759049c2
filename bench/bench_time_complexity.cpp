// Time complexity (paper §7, Conclusion): "Kutten and Peleg describe a
// wake-up model in which some global broadcast mechanism takes T time to
// wake-up all nodes; in such a model the time complexity of their algorithm
// ... is O(T + log n).  Note that in such a model our algorithm's time
// complexity is O(T + n)."
//
// Reproduction: run all three variants under the unit-delay scheduler with
// simultaneous wake-up (T = 0) and report quiescence time — the longest
// causal message chain.  The paper predicts linear-in-n time (the price of
// the sequential conquest structure), versus the polylogarithmic round
// counts of the synchronous baselines on the same graphs.
//
// The per-size measurements are independent simulations, so they fan out
// over sim::parallel_sweep workers; rows are merged back in size order, so
// the table and the JSON are identical no matter how many cores ran it.
#include <iostream>
#include <vector>

#include "bench_report.h"
#include "baselines/name_dropper.h"
#include "baselines/pointer_doubling.h"
#include "common/bitmath.h"
#include "common/table.h"
#include "core/runner.h"
#include "graph/topology.h"
#include "sim/sweep.h"

int main(int argc, char** argv) {
  using namespace asyncrd;
  std::cout << "== Time complexity: quiescence time under unit delays ==\n\n";

  bench::reporter rep("time_complexity", argc, argv);

  text_table t({"n", "generic", "bounded", "adhoc", "generic/n", "log n",
                "NameDropper rounds", "ptr-dbl rounds"});
  bool all_ok = true;

  const std::vector<std::size_t> sizes = {64, 128, 256, 512, 1024, 2048};

  struct datapoint {
    core::run_summary gen, bnd, adh;
    baselines::baseline_result nd, pd;
  };
  std::vector<datapoint> results(sizes.size());

  // One job per problem size; each worker touches only its own slot.
  const sim::sweep_result sw = sim::parallel_sweep(
      sizes.size(), [&](std::size_t i, std::size_t /*worker*/) {
        const std::size_t n = sizes[i];
        const auto g = graph::random_weakly_connected(n, n, 71 + n);
        datapoint& d = results[i];
        d.gen = core::run_discovery(g, core::variant::generic, 0);
        d.bnd = core::run_discovery(g, core::variant::bounded, 0);
        d.adh = core::run_discovery(g, core::variant::adhoc, 0);
        d.nd = baselines::run_name_dropper(g, 5);
        d.pd = baselines::run_pointer_doubling(g);
      });

  // Merge in size order: results are keyed by job index, never by worker
  // completion order, so the report is deterministic.
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t n = sizes[i];
    const datapoint& d = results[i];
    all_ok = all_ok && d.gen.completed && d.bnd.completed &&
             d.adh.completed && d.gen.violations.empty() &&
             d.bnd.violations.empty() && d.adh.violations.empty();
    const double dn = static_cast<double>(n);
    rep.add("generic", dn, static_cast<double>(d.gen.completion_time), dn);
    rep.add("bounded", dn, static_cast<double>(d.bnd.completion_time), dn);
    rep.add("adhoc", dn, static_cast<double>(d.adh.completion_time), dn);
    rep.merge_types(d.gen.by_type);
    rep.merge_types(d.bnd.by_type);
    rep.merge_types(d.adh.by_type);
    t.add_row({std::to_string(n), std::to_string(d.gen.completion_time),
               std::to_string(d.bnd.completion_time),
               std::to_string(d.adh.completion_time),
               fmt_double(static_cast<double>(d.gen.completion_time) /
                          static_cast<double>(n)),
               std::to_string(ceil_log2(n)), std::to_string(d.nd.rounds),
               std::to_string(d.pd.rounds)});
  }

  rep.note("sweep_workers", static_cast<double>(sw.workers));
  rep.note("sweep_wall_ms", sw.wall_ms);

  t.print(std::cout);
  std::cout << "\npaper: §7 — this algorithm trades time for messages:"
               " expect quiescence time Theta(n) (generic/n roughly flat)\n"
               "while the synchronous baselines finish in polylog rounds;"
               " closing that gap while keeping O(n alpha) messages is the\n"
               "paper's stated open question.\n";
  return rep.finish(all_ok);
}

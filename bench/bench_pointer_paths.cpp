// Pointer-path quality and leader hotspot — two systems-level properties
// the paper discusses qualitatively:
//
//  * §1.3: "Ideally, we would like the length of the path between any
//    non-leader node to the leader to be bounded by O(1).  Our algorithm
//    achieves an amortized bound: for any m requests to reach the leader,
//    the total cost of leader election and reply messages to all the
//    requests is O((m+n) alpha(m,n))."
//    Reproduction: measure the next-pointer chain length distribution at
//    quiescence and after successive full probe rounds (each round's path
//    compression flattens the forest), plus the amortized per-probe cost.
//
//  * Hotspot analysis: the leader concentrates traffic; report the maximum
//    per-node message load as a fraction of total traffic across n.
//
// Each run is checked against the §1.2 specification before it is
// measured; a failed check skips the row and fails the report.
#include <algorithm>
#include <iostream>

#include "bench_report.h"
#include "common/table.h"
#include "core/checker.h"
#include "core/runner.h"
#include "graph/topology.h"
#include "sim/load_observer.h"

namespace {

using namespace asyncrd;

struct chain_stats {
  double avg = 0.0;
  std::size_t max = 0;
};

chain_stats measure_chains(const core::discovery_run& run, node_id leader) {
  chain_stats cs;
  std::size_t count = 0, total = 0;
  for (const node_id v : run.ids()) {
    if (v == leader) continue;
    node_id cur = v;
    std::size_t hops = 0;
    while (cur != leader && hops <= run.ids().size()) {
      cur = run.at(cur).next();
      ++hops;
    }
    total += hops;
    cs.max = std::max(cs.max, hops);
    ++count;
  }
  cs.avg = count == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(count);
  return cs;
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "== Pointer paths (Ad-hoc property 3b) and leader hotspot ==\n\n";

  bench::reporter rep("pointer_paths", argc, argv);
  text_table t({"n", "avg path", "max path", "after 1 probe rnd",
                "after 2 rnds", "probe msgs/rnd2", "max node load %"});
  bool all_ok = true;
  for (const std::size_t n : {128u, 512u, 2048u}) {
    const auto g = graph::random_weakly_connected(n, n, 77 + n);
    sim::unit_delay_scheduler sched;
    core::config cfg;
    cfg.algo = core::variant::adhoc;
    cfg.census_in_probe_reply = false;
    core::discovery_run run(g, cfg, sched);
    sim::load_observer load;
    run.net().add_observer(&load);
    run.wake_all();
    run.run();
    if (!core::check_final_state(run, g).ok()) {
      std::cout << "spec check FAILED: n = " << n << '\n';
      all_ok = false;
      continue;
    }
    const node_id leader = run.leaders().front();

    const chain_stats initial = measure_chains(run, leader);
    const auto probe_round = [&]() {
      const auto before =
          run.statistics().messages_of_any({"probe", "probe_reply"});
      for (const node_id v : run.ids()) run.probe(v);
      run.net().run_to_quiescence();
      return run.statistics().messages_of_any({"probe", "probe_reply"}) -
             before;
    };
    probe_round();
    const chain_stats after1 = measure_chains(run, leader);
    const auto round2_msgs = probe_round();
    const chain_stats after2 = measure_chains(run, leader);

    const double load_pct =
        100.0 * static_cast<double>(load.max_load()) /
        static_cast<double>(2 * run.statistics().total_messages());

    const double dn = static_cast<double>(n);
    // §1.3: one compression round leaves every node one hop from the
    // leader, so round 2 costs exactly one probe + one reply per non-leader.
    rep.add("avg_path_after_round1", dn, after1.avg, 1.0);
    rep.add("probe_msgs_round2", dn, static_cast<double>(round2_msgs),
            2.0 * (dn - 1.0));
    rep.merge_stats(run.statistics());
    rep.note("max_load_pct_n" + std::to_string(n), load_pct);

    t.add_row({std::to_string(n), fmt_double(initial.avg),
               std::to_string(initial.max),
               fmt_double(after1.avg) + "/" + std::to_string(after1.max),
               fmt_double(after2.avg) + "/" + std::to_string(after2.max),
               std::to_string(round2_msgs), fmt_double(load_pct, 1)});
  }
  t.print(std::cout);
  std::cout
      << "\npaper: §1.3 — paths are not O(1) worst-case, but compression"
         " drives them there: after one full probe round every node is\n"
         "one hop from the leader (avg/max -> 1/1) and a second round costs"
         " exactly 2 messages per node.  The leader is the hotspot,\n"
         "touching a large constant fraction of all traffic.\n";
  return rep.finish(all_ok);
}

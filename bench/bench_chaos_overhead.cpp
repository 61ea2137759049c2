// Chaos overhead: what the reliable-delivery adapter pays, in wire
// messages and completion time, to rebuild the paper's reliable-FIFO
// contract (§1.2) over a faulty transport.
//
// Sweep drop rate x {plain, +duplication, +duplication+outage} on a fixed
// topology, all cells fanned over sim::parallel_sweep.  Each cell runs the
// Ad-hoc algorithm unmodified under a seeded fault plan, passes the full
// final-state checker, and reports
//
//   msg_overhead  = wire messages (envelopes + acks + dups) / fault-free
//                   wire messages of the same (graph, schedule);
//   time_dilation = virtual completion time / fault-free completion time.
//
// The drop = 0 column isolates the pure ARQ tax (every data envelope buys
// one ack, so the ratio starts near 2) from the fault-recovery tax
// (retransmission storms and backoff waits, which grow with the drop rate).
#include <iostream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "common/table.h"
#include "core/checker.h"
#include "core/runner.h"
#include "graph/topology.h"
#include "sim/reliable_link.h"
#include "sim/sweep.h"

int main(int argc, char** argv) {
  using namespace asyncrd;
  std::cout << "== Chaos overhead: reliable delivery over a faulty wire ==\n\n";

  bench::reporter rep("chaos_overhead", argc, argv);

  struct cell {
    double drop;
    bool dup;
    bool outage;
  };
  std::vector<cell> cells;
  for (const double drop : {0.0, 0.05, 0.15, 0.3})
    for (int mode = 0; mode < 3; ++mode)
      cells.push_back({drop, mode >= 1, mode >= 2});

  struct outcome {
    bool ok = false;
    std::uint64_t wire_msgs = 0;
    std::uint64_t data_sent = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t drops = 0;
    sim::sim_time time = 0;
    std::map<std::string, sim::type_stats, std::less<>> by_type;
  };

  constexpr std::uint64_t kSeed = 42;
  const auto g = graph::random_weakly_connected(128, 256, 17);

  // Fault-free reference for the same (graph, schedule) pair.
  std::uint64_t base_msgs = 0;
  sim::sim_time base_time = 1;
  {
    sim::random_delay_scheduler sched(kSeed);
    core::config cfg;
    cfg.algo = core::variant::adhoc;
    core::discovery_run run(g, cfg, sched);
    run.wake_all();
    const auto r = run.run();
    base_msgs = run.statistics().total_messages();
    base_time = run.net().now() == 0 ? 1 : run.net().now();
    if (!r.completed || !core::check_final_state(run, g).ok()) {
      std::cerr << "fault-free reference run failed\n";
      return rep.finish(false);
    }
  }

  std::vector<outcome> results(cells.size());
  const sim::sweep_result sw = sim::parallel_sweep(
      cells.size(), [&](std::size_t i, std::size_t /*worker*/) {
        const cell& c = cells[i];
        sim::random_delay_scheduler sched(kSeed);
        core::config cfg;
        cfg.algo = core::variant::adhoc;
        core::discovery_run run(g, cfg, sched);
        sim::fault_plan plan;
        plan.seed = kSeed + i;
        plan.drop = c.drop;
        plan.duplicate = c.dup ? 0.10 : 0.0;
        plan.reorder_slack = 32;
        if (c.outage) {
          plan.outage_period = 512;
          plan.outage_duration = 64;
        }
        run.enable_chaos(plan);
        run.wake_all();
        const auto r = run.run();
        outcome& o = results[i];
        o.ok = r.completed && run.reliable_links()->all_acked() &&
               core::check_final_state(run, g).ok();
        o.wire_msgs = run.statistics().total_messages();
        o.data_sent = run.reliable_links()->stats().data_sent;
        o.retransmits = run.reliable_links()->stats().retransmits;
        o.drops = run.net().faults().drops + run.net().faults().outage_drops;
        o.time = run.net().now();
        o.by_type = run.statistics().by_type();
      });

  text_table t({"drop", "dup", "outage", "wire msgs", "retx", "dropped",
                "msg overhead", "time dilation", "ok"});
  bool all_ok = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const cell& c = cells[i];
    const outcome& o = results[i];
    all_ok = all_ok && o.ok;
    const std::string mode = std::string(c.dup ? "+dup" : "") +
                             (c.outage ? "+outage" : "");
    const double overhead =
        static_cast<double>(o.wire_msgs) / static_cast<double>(base_msgs);
    const double dilation =
        static_cast<double>(o.time) / static_cast<double>(base_time);
    rep.add("msg_overhead" + (mode.empty() ? "" : ":" + mode), c.drop,
            overhead, 0.0);
    rep.add("time_dilation" + (mode.empty() ? "" : ":" + mode), c.drop,
            dilation, 0.0);
    rep.merge_types(o.by_type);
    t.add_row({fmt_double(c.drop), c.dup ? "y" : "n", c.outage ? "y" : "n",
               std::to_string(o.wire_msgs), std::to_string(o.retransmits),
               std::to_string(o.drops), fmt_double(overhead),
               fmt_double(dilation), o.ok ? "y" : "N"});
  }

  rep.note("baseline_wire_msgs", static_cast<double>(base_msgs));
  rep.note("baseline_completion_time", static_cast<double>(base_time));
  rep.note("sweep_workers", static_cast<double>(sw.workers));
  rep.note("sweep_wall_ms", sw.wall_ms);

  t.print(std::cout);
  std::cout << "\nexpectation: the drop=0 rows price the bare ARQ tax"
               " (~2x messages for acks, no retransmissions); overhead and"
               " dilation then climb with the drop rate as timers fire and"
               " back off, while every cell still passes the full checker.\n";
  return rep.finish(all_ok);
}

// Chaos acceptance sweep: every algorithm variant must survive a lossy
// transport when the reliable-link adapter is layered underneath it.
//
// The grid covers drop rates x duplication x outage windows x topologies
// for Generic, Bounded, and Ad-hoc, fanned across threads with
// sim::parallel_sweep.  Every cell runs the *full* final-state checker —
// the paper's algorithms are used unmodified, so any reliability leak in
// the adapter (lost, duplicated, or reordered application message) shows
// up as a safety violation here.  A second pass replays two cells and
// requires byte-identical executions per seed.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "core/checker.h"
#include "core/runner.h"
#include "graph/topology.h"
#include "sim/network.h"
#include "sim/reliable_link.h"
#include "sim/scheduler.h"
#include "sim/sweep.h"
#include "telemetry/json.h"
#include "telemetry/report.h"

namespace asyncrd {
namespace {

using core::variant;

struct chaos_cell {
  variant algo;
  int topology;  // 0 = random, 1 = binary tree, 2 = directed path
  double drop;
  bool duplicate;
  bool outage;
};

graph::digraph make_topology(int which) {
  switch (which) {
    case 0:
      return graph::random_weakly_connected(24, 48, 7);
    case 1:
      return graph::directed_binary_tree(5);  // 31 nodes
    default:
      return graph::directed_path(16);
  }
}

sim::fault_plan make_plan(const chaos_cell& c, std::uint64_t seed) {
  sim::fault_plan plan;
  plan.seed = seed;
  plan.drop = c.drop;
  plan.duplicate = c.duplicate ? 0.10 : 0.0;
  plan.reorder_slack = 32;
  if (c.outage) {
    plan.outage_period = 512;
    plan.outage_duration = 64;
  }
  return plan;
}

/// One chaos execution end to end; returns the checker verdict ("" = ok).
std::string run_cell(const chaos_cell& c, std::uint64_t seed,
                     core::run_summary* out = nullptr,
                     sim::fault_stats* faults = nullptr) {
  const auto g = make_topology(c.topology);
  sim::random_delay_scheduler sched(seed);
  core::config cfg;
  cfg.algo = c.algo;
  core::discovery_run run(g, cfg, sched);
  run.enable_chaos(make_plan(c, seed));
  run.wake_all();
  const sim::run_result r = run.run();
  if (!r.completed) return "event cap hit (livelock?)";
  if (!run.reliable_links()->all_acked())
    return "reliable link not drained at quiescence";
  const auto rep = core::check_final_state(run, g);
  if (!rep.ok()) return rep.to_string();
  if (out != nullptr) {
    out->messages = run.statistics().total_messages();
    out->bits = run.statistics().total_bits();
    out->events = r.events_processed;
    out->completion_time = run.net().now();
    out->by_type = run.statistics().by_type();
    out->leaders = run.leaders();
    out->completed = r.completed;
  }
  if (faults != nullptr) *faults = run.net().faults();
  return {};
}

TEST(ChaosSweep, AllVariantsSurviveTheFaultGrid) {
  std::vector<chaos_cell> cells;
  for (const variant v : {variant::generic, variant::bounded, variant::adhoc})
    for (int topo = 0; topo < 3; ++topo)
      for (const double drop : {0.05, 0.15, 0.3})
        for (const bool dup : {false, true})
          for (const bool outage : {false, true})
            cells.push_back({v, topo, drop, dup, outage});
  ASSERT_EQ(cells.size(), 108u);

  std::vector<std::string> verdicts(cells.size());
  std::atomic<std::uint64_t> total_drops{0};
  const sim::sweep_result sw =
      sim::parallel_sweep(cells.size(), [&](std::size_t job, std::size_t) {
        sim::fault_stats fs;
        verdicts[job] = run_cell(cells[job], 1000 + job, nullptr, &fs);
        total_drops.fetch_add(fs.drops + fs.outage_drops,
                              std::memory_order_relaxed);
      });
  EXPECT_EQ(sw.jobs_completed, cells.size());
  EXPECT_EQ(sw.jobs_skipped, 0u);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const chaos_cell& c = cells[i];
    EXPECT_TRUE(verdicts[i].empty())
        << "cell " << i << " (variant=" << static_cast<int>(c.algo)
        << " topo=" << c.topology << " drop=" << c.drop
        << " dup=" << c.duplicate << " outage=" << c.outage
        << "): " << verdicts[i];
  }
  // The grid must actually have exercised the fault paths.
  EXPECT_GT(total_drops.load(), 0u);
}

TEST(ChaosSweep, ExecutionsAreByteIdenticalPerSeed) {
  // The strongest replay check we can state: every observable of the run —
  // message/bit totals, per-type counts, event count, completion time,
  // leaders, and all fault counters — identical across two executions.
  const chaos_cell cell{variant::generic, 0, 0.3, true, true};
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    core::run_summary a, b;
    sim::fault_stats fa, fb;
    ASSERT_EQ(run_cell(cell, seed, &a, &fa), "");
    ASSERT_EQ(run_cell(cell, seed, &b, &fb), "");
    EXPECT_EQ(a.messages, b.messages) << "seed " << seed;
    EXPECT_EQ(a.bits, b.bits) << "seed " << seed;
    EXPECT_EQ(a.events, b.events) << "seed " << seed;
    EXPECT_EQ(a.completion_time, b.completion_time) << "seed " << seed;
    EXPECT_EQ(a.leaders, b.leaders) << "seed " << seed;
    for (const auto& [type, st] : a.by_type) {
      EXPECT_EQ(st.count, b.by_type.at(type).count) << type << " " << seed;
      EXPECT_EQ(st.bits, b.by_type.at(type).bits) << type << " " << seed;
    }
    EXPECT_EQ(fa.transmissions, fb.transmissions) << "seed " << seed;
    EXPECT_EQ(fa.drops, fb.drops) << "seed " << seed;
    EXPECT_EQ(fa.outage_drops, fb.outage_drops) << "seed " << seed;
    EXPECT_EQ(fa.duplicates, fb.duplicates) << "seed " << seed;
    EXPECT_EQ(fa.reorder_delay, fb.reorder_delay) << "seed " << seed;
  }
}

TEST(ChaosSweep, RunReportCarriesChaosCounters) {
  const auto g = make_topology(0);
  sim::random_delay_scheduler sched(5);
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  sim::fault_plan plan;
  plan.seed = 5;
  plan.drop = 0.2;
  plan.duplicate = 0.1;
  run.enable_chaos(plan);
  telemetry::run_recorder rec(run);
  run.wake_all();
  const auto rep = rec.report(run.run());

  EXPECT_TRUE(rep.chaos.enabled);
  EXPECT_GT(rep.chaos.transmissions, 0u);
  EXPECT_GT(rep.chaos.drops, 0u);
  EXPECT_GT(rep.chaos.retransmits, 0u);
  EXPECT_GT(rep.chaos.acks_sent, 0u);
  EXPECT_EQ(rep.chaos.data_sent, run.reliable_links()->stats().data_sent);

  // The JSON document exposes the same counters under "chaos".
  std::string err;
  const auto parsed = telemetry::json_parse(rep.to_json(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  const auto* chaos = parsed->find("chaos");
  ASSERT_NE(chaos, nullptr);
  EXPECT_NE(chaos->find("drops"), nullptr);
  EXPECT_NE(chaos->find("retransmits"), nullptr);
  EXPECT_DOUBLE_EQ(chaos->find("retransmits")->as_number(),
                   static_cast<double>(rep.chaos.retransmits));
}

TEST(ChaosSweep, CleanRunReportsChaosDisabled) {
  const auto g = graph::directed_path(6);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  telemetry::run_recorder rec(run);
  run.wake_all();
  const auto rep = rec.report(run.run());
  EXPECT_FALSE(rep.chaos.enabled);
  EXPECT_EQ(rep.chaos.transmissions, 0u);
  EXPECT_EQ(rep.chaos.retransmits, 0u);
}

}  // namespace
}  // namespace asyncrd

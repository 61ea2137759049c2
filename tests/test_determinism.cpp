// Reproducibility guarantees: identical configuration + seed must replay
// the exact same execution (event order, message counts, final state).
// Every benchmark number in EXPERIMENTS.md depends on this.
#include <gtest/gtest.h>

#include <tuple>

#include "core/checker.h"
#include "core/runner.h"
#include "graph/topology.h"

namespace asyncrd {
namespace {

using core::variant;

core::run_summary one(const graph::digraph& g, variant v, std::uint64_t seed) {
  return core::run_discovery(g, v, seed);
}

TEST(Determinism, IdenticalSeedsReplayExactly) {
  const auto g = graph::random_weakly_connected(80, 160, 9);
  for (const auto v :
       {variant::generic, variant::bounded, variant::adhoc}) {
    const auto a = one(g, v, 12345);
    const auto b = one(g, v, 12345);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.bits, b.bits);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.completion_time, b.completion_time);
    EXPECT_EQ(a.leaders, b.leaders);
  }
}

TEST(Determinism, UnitDelayCanonicalExecution) {
  const auto g = graph::random_weakly_connected(50, 100, 3);
  const auto a = one(g, variant::generic, 0);
  const auto b = one(g, variant::generic, 0);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.leaders, b.leaders);
}

TEST(Determinism, DifferentSeedsUsuallyDifferButStayCorrect) {
  const auto g = graph::random_weakly_connected(60, 120, 5);
  std::set<std::uint64_t> counts;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto s = one(g, variant::generic, seed);
    EXPECT_EQ(s.violations, std::vector<std::string>{}) << "seed " << seed;
    counts.insert(s.messages);
  }
  // Asynchrony matters: different interleavings change the message count.
  EXPECT_GT(counts.size(), 1u);
}

TEST(Determinism, LeaderIdenticalUnderAllSchedulesWithPhasesOff) {
  // With phases ablated, conquest order is id-dominated: the max id always
  // wins regardless of scheduling.  (With phases on, the *identity* of the
  // leader may legitimately vary by interleaving; only uniqueness is
  // specified.)
  const auto g = graph::random_weakly_connected(30, 60, 7);
  node_id expected = 29;
  for (std::uint64_t seed = 0; seed <= 8; ++seed) {
    sim::unit_delay_scheduler unit;
    sim::random_delay_scheduler random(seed == 0 ? 1 : seed);
    sim::scheduler& sched = seed == 0
                                ? static_cast<sim::scheduler&>(unit)
                                : static_cast<sim::scheduler&>(random);
    core::config cfg;
    cfg.use_phases = false;
    core::discovery_run run(g, cfg, sched);
    run.wake_all();
    run.run();
    ASSERT_EQ(run.leaders().size(), 1u);
    EXPECT_EQ(run.leaders().front(), expected) << "seed " << seed;
  }
}

TEST(Determinism, ChaosExecutionsReplayByteForByte) {
  // The chaos transport must not cost reproducibility: same plan seed =>
  // same drops, same retransmissions, same execution — bit for bit.
  const auto g = graph::random_weakly_connected(40, 80, 21);
  const auto run_once = [&]() {
    sim::random_delay_scheduler sched(21);
    core::config cfg;
    core::discovery_run run(g, cfg, sched);
    sim::fault_plan plan;
    plan.seed = 21;
    plan.drop = 0.2;
    plan.duplicate = 0.1;
    plan.reorder_slack = 24;
    plan.outage_period = 256;
    plan.outage_duration = 32;
    run.enable_chaos(plan);
    run.wake_all();
    const auto r = run.run();
    EXPECT_TRUE(r.completed);
    const auto& f = run.net().faults();
    const auto& rl = run.reliable_links()->stats();
    return std::tuple{run.statistics().total_messages(),
                      run.statistics().total_bits(),
                      r.events_processed,
                      run.net().now(),
                      run.leaders(),
                      f.transmissions,
                      f.drops,
                      f.outage_drops,
                      f.duplicates,
                      f.reorder_delay,
                      rl.retransmits,
                      rl.acks_sent,
                      rl.dup_suppressed};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Determinism, StatsByTypeReplayExactly) {
  const auto g = graph::directed_binary_tree(6);
  const auto run_once = [&]() {
    sim::random_delay_scheduler sched(77);
    core::config cfg;
    core::discovery_run run(g, cfg, sched);
    run.wake_all();
    run.run();
    std::map<std::string, std::uint64_t> out;
    for (const auto& [k, v] : run.statistics().by_type()) out[k] = v.count;
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace asyncrd

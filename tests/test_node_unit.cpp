// White-box unit tests of the node state machine: construction, wake-up,
// the query transaction, conquer-pointer monotonicity, and inspection APIs.
#include <gtest/gtest.h>

#include "core/node.h"
#include "core/runner.h"
#include "graph/topology.h"
#include "sim/scheduler.h"

namespace asyncrd {
namespace {

using core::status_t;

// A run holds one node object per vertex, so the object's size is a per-node
// floor on memory: the one-byte fields share a word with the id and the
// census lives out of line.
TEST(NodeUnit, ObjectFitsIn232Bytes) { EXPECT_LE(sizeof(core::node), 232u); }

TEST(NodeUnit, InitialStateMatchesFigure2) {
  core::config cfg;
  core::node n(5, cfg, {1, 2, 3});
  EXPECT_EQ(n.status(), status_t::asleep);
  EXPECT_EQ(n.phase(), 1u);
  EXPECT_EQ(n.next(), 5u);                      // next = id
  EXPECT_EQ(n.more(), (std::set<node_id>{5}));  // more = {id}
  EXPECT_TRUE(n.done().empty());
  EXPECT_TRUE(n.unaware().empty());
  EXPECT_TRUE(n.unexplored().empty());
  EXPECT_EQ(n.local(), (std::set<node_id>{1, 2, 3}));
}

TEST(NodeUnit, SelfIdStrippedFromInitialLocal) {
  core::config cfg;
  core::node n(2, cfg, {1, 2, 3});  // knows itself: ignored
  EXPECT_EQ(n.local(), (std::set<node_id>{1, 3}));
}

TEST(NodeUnit, IsolatedNodeWakesToIdleWait) {
  // A node that knows nobody: self-query drains instantly, ends WAIT-idle
  // as its own leader with done = {self}.
  graph::digraph g;
  g.add_node(9);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  run.run();
  const core::node& n = run.at(9);
  EXPECT_EQ(n.status(), status_t::wait);
  EXPECT_EQ(n.done(), (std::set<node_id>{9}));
  EXPECT_TRUE(n.more().empty());
  EXPECT_TRUE(n.is_leader());
}

TEST(NodeUnit, QueryTransactionBalancesExactly) {
  // Fig 3/5: the leader requests |more|+|done|+1 ids; the member returns
  // min(k, |local|) and flags exhaustion.  Verify on a star where the
  // center holds many unreported ids.
  graph::digraph g = graph::star_out(8);  // center 0 knows 1..7
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  run.run();
  // Whoever leads, the center's local must be fully drained.
  EXPECT_TRUE(run.at(0).local().empty());
  const auto leaders = run.leaders();
  ASSERT_EQ(leaders.size(), 1u);
  EXPECT_EQ(run.at(leaders.front()).done().size(), 8u);
}

TEST(NodeUnit, KnownMembersIsCensus) {
  graph::digraph g;
  g.add_edge(0, 1);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  run.run();
  const auto leaders = run.leaders();
  EXPECT_EQ(run.at(leaders.front()).known_members(),
            (std::vector<node_id>{0, 1}));
}

TEST(NodeUnit, PhaseGrowsOnEqualPhaseMergeOnly) {
  // Two singletons merging have equal phase 1 -> winner increments to 2.
  graph::digraph g;
  g.add_edge(0, 1);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  run.run();
  EXPECT_EQ(run.at(1).phase(), 2u);
}

TEST(NodeUnit, UsePhasesFalseKeepsPhaseAtOne) {
  graph::digraph g = graph::random_weakly_connected(12, 12, 4);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  cfg.use_phases = false;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  run.run();
  for (const node_id v : run.ids()) EXPECT_EQ(run.at(v).phase(), 1u);
  // With id-only comparisons the max id must end up leader.
  EXPECT_EQ(run.leaders(), (std::vector<node_id>{11}));
}

TEST(NodeUnit, RunnerRejectsUnknownId) {
  graph::digraph g;
  g.add_node(1);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  EXPECT_THROW(run.at(99), std::invalid_argument);
}

TEST(NodeUnit, DeferredQueueEmptiesAtQuiescence) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto g = graph::random_weakly_connected(25, 50, seed);
    sim::random_delay_scheduler sched(seed * 7);
    core::config cfg;
    core::discovery_run run(g, cfg, sched);
    run.wake_all();
    run.run();
    for (const node_id v : run.ids()) {
      EXPECT_FALSE(run.at(v).has_deferred()) << "node " << v << " seed " << seed;
      EXPECT_EQ(run.at(v).pending_queue_depth(), 0u)
          << "node " << v << " seed " << seed;
    }
  }
}

TEST(NodeUnit, LeadersViewIsSortedAscending) {
  const auto g = graph::multi_component(4, 6, 3, 12);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  run.run();
  const auto leaders = run.leaders();
  ASSERT_EQ(leaders.size(), 4u);
  EXPECT_TRUE(std::is_sorted(leaders.begin(), leaders.end()));
}

}  // namespace
}  // namespace asyncrd

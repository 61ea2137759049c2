// §6: node and link additions while (and after) the Ad-hoc algorithm runs.
#include <gtest/gtest.h>

#include "graph/topology.h"
#include "test_util.h"

namespace asyncrd {
namespace {

using core::variant;

TEST(Dynamic, LinkAdditionMergesTwoComponents) {
  // Two settled components; a new link (u -> v) across them must trigger a
  // report, re-exploration, and a merge into a single leader.
  graph::digraph g = graph::multi_component(2, 10, 6, 21);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  cfg.algo = variant::adhoc;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  run.run();
  EXPECT_EQ(run.leaders().size(), 2u);

  run.add_link_dynamic(3, 13);  // crosses the components
  g.add_edge(3, 13);
  run.run();
  EXPECT_EQ(run.leaders().size(), 1u);
  const auto rep = core::check_final_state(run, g);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(Dynamic, NodeAdditionJoinsComponent) {
  graph::digraph g = graph::random_weakly_connected(15, 15, 8);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  cfg.algo = variant::adhoc;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  run.run();

  // "there is no difference between a node joining the system at a certain
  // time and a node that wakes up at that time."
  run.add_node_dynamic(100, {3, 7});
  g.add_edge(100, 3);
  g.add_edge(100, 7);
  run.run();
  const auto rep = core::check_final_state(run, g);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(run.leaders().size(), 1u);
}

TEST(Dynamic, ManySequentialAdditionsStaySafe) {
  graph::digraph g = graph::random_weakly_connected(10, 10, 30);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  cfg.algo = variant::adhoc;
  core::discovery_run run(g, cfg, sched);
  testing::knowledge_audit audit(g);
  run.net().add_observer(&audit);
  run.wake_all();
  run.run();

  rng r(55);
  node_id next_id = 200;
  for (int i = 0; i < 20; ++i) {
    if (r.chance(0.5)) {
      // new node knowing two random existing nodes
      const auto ids = run.ids();
      const node_id a = ids[static_cast<std::size_t>(r.below(ids.size()))];
      const node_id b = ids[static_cast<std::size_t>(r.below(ids.size()))];
      run.add_node_dynamic(next_id, {a, b});
      audit.add_edge(next_id, a);
      audit.add_edge(next_id, b);
      g.add_edge(next_id, a);
      g.add_edge(next_id, b);
      ++next_id;
    } else {
      const auto ids = run.ids();
      const node_id a = ids[static_cast<std::size_t>(r.below(ids.size()))];
      const node_id b = ids[static_cast<std::size_t>(r.below(ids.size()))];
      if (a != b) {
        run.add_link_dynamic(a, b);
        audit.add_edge(a, b);
        g.add_edge(a, b);
      }
    }
    run.run();
    const auto rep = core::check_final_state(run, g);
    ASSERT_TRUE(rep.ok()) << "after addition " << i << ":\n" << rep.to_string();
  }
  EXPECT_EQ(audit.violations(), 0)
      << "knowledge-graph discipline violated: " << audit.first_violation();
}

TEST(Dynamic, LinkAdditionDuringExecutionIsSafe) {
  // Inject links while the initial discovery is still in flight.
  graph::digraph g = graph::multi_component(2, 12, 6, 99);
  sim::random_delay_scheduler sched(7);
  core::config cfg;
  cfg.algo = variant::adhoc;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  // Run a bounded slice of events, then add the cross link mid-flight.
  run.net().run_to_quiescence(/*max_events=*/40);
  run.add_link_dynamic(2, 17);
  g.add_edge(2, 17);
  run.run();
  const auto rep = core::check_final_state(run, g);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(Dynamic, DuplicateLinkAdditionIsFree) {
  graph::digraph g;
  g.add_edge(0, 1);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  cfg.algo = variant::adhoc;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  run.run();
  const auto before = run.statistics().total_messages();
  run.add_link_dynamic(0, 1);  // edge already existed in E0
  run.run();
  EXPECT_EQ(run.statistics().total_messages(), before);
}

TEST(Dynamic, RepeatedE0LinkOfInactiveNodeIsReportedAgain) {
  // A node keeps no record of the ids it has already reported, so an E0
  // link added again is a new §6 link unless it points at the node's own
  // `next`: an inactive node with an empty local pool sends a report.
  const graph::digraph g = graph::random_weakly_connected(15, 15, 8);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  cfg.algo = variant::adhoc;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  run.run();
  const auto leaders = run.leaders();
  ASSERT_EQ(leaders.size(), 1u);

  node_id u = invalid_node, b = invalid_node;
  for (const node_id v : run.ids()) {
    if (run.at(v).status() != core::status_t::inactive) continue;
    for (const node_id w : g.out(v)) {
      if (w != run.at(v).next()) {
        u = v;
        b = w;
        break;
      }
    }
    if (u != invalid_node) break;
  }
  ASSERT_NE(u, invalid_node) << "no inactive node with an E0 link off next";

  const auto reports = run.statistics().messages_of("report");
  run.add_link_dynamic(u, b);
  run.run();
  EXPECT_GT(run.statistics().messages_of("report"), reports);
  const auto rep = core::check_final_state(run, g);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(run.leaders(), leaders);
}

TEST(Dynamic, IncrementalCostBeatsFromScratch) {
  // Theorem 8's point: absorbing n_hat additions costs far less than
  // re-running discovery on the grown network.
  const std::size_t n = 120;
  graph::digraph g = graph::random_weakly_connected(n, n, 77);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  cfg.algo = variant::adhoc;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  run.run();
  const auto base_msgs = run.statistics().total_messages();

  graph::digraph grown = g;
  rng r(31);
  for (int i = 0; i < 12; ++i) {
    const node_id fresh = static_cast<node_id>(1000 + i);
    const node_id peer = static_cast<node_id>(r.below(n));
    run.add_node_dynamic(fresh, {peer});
    grown.add_edge(fresh, peer);
    run.run();
  }
  const auto incremental = run.statistics().total_messages() - base_msgs;
  const auto rep = core::check_final_state(run, grown);
  ASSERT_TRUE(rep.ok()) << rep.to_string();

  const auto scratch = core::run_discovery(grown, variant::adhoc, 0);
  EXPECT_LT(incremental, scratch.messages / 2)
      << "incremental " << incremental << " vs scratch " << scratch.messages;
}

TEST(Dynamic, GenericVariantAlsoAbsorbsAdditions) {
  // §6 is stated for Ad-hoc, but the report machinery is variant-agnostic;
  // the Generic algorithm must stay correct under additions too.
  graph::digraph g = graph::random_weakly_connected(12, 12, 3);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  cfg.algo = variant::generic;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  run.run();
  run.add_node_dynamic(500, {4});
  g.add_edge(500, 4);
  run.run();
  const auto rep = core::check_final_state(run, g);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

}  // namespace
}  // namespace asyncrd

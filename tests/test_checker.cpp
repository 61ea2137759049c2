// The verification layer itself: it must flag broken outcomes, not just
// bless correct ones.
#include <gtest/gtest.h>

#include "core/checker.h"
#include "core/runner.h"
#include "graph/topology.h"
#include "test_util.h"

namespace asyncrd {
namespace {

TEST(Checker, FlagsSleepingNodes) {
  const auto g = graph::directed_path(4);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  // Wake only node 0; 1..3 are woken transitively by searches — but node 3
  // receives nothing if we never run.  Run nothing at all:
  const auto rep = core::check_final_state(run, g);
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.to_string().find("never woke up"), std::string::npos);
}

TEST(Checker, FlagsMultipleLeaders) {
  // Two isolated nodes reported as one component: two leaders detected.
  graph::digraph g;
  g.add_node(0);
  g.add_node(1);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  run.run();
  const auto rep =
      core::check_final_state(run, {{0, 1}});  // lie about the components
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.to_string().find("2 leaders"), std::string::npos);
}

// Property (2)'s violation text, pinned: a settled run checked against a
// deliberately wrong component list (one member of each component swapped
// for one of the other) names each missing and each extraneous id.  The
// member list may come unsorted and with repeats; the done-set verdict
// takes it as a set, while the per-member checks visit every entry.
TEST(Checker, DoneSetMismatchNamesMissingAndExtraneousIds) {
  graph::digraph g;
  for (node_id v = 0; v < 5; ++v) g.add_node(v);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  run.run();
  ASSERT_TRUE(core::check_final_state(run, g).ok());
  ASSERT_EQ(run.leaders(), (std::vector<node_id>{2, 4}));
  const std::string expected =
      "leader 2 done-set mismatch: knows 3 of 3 ids; missing 3; extraneous 0\n"
      "node 3 next = 4 but leader is 2\n"
      "leader 4 done-set mismatch: knows 2 of 2 ids; missing 0; extraneous 3\n"
      "node 0 next = 2 but leader is 4\n";
  EXPECT_EQ(core::check_final_state(run, {{1, 2, 3}, {0, 4}}).to_string(),
            expected);
  EXPECT_EQ(core::check_final_state(run, {{3, 2, 1}, {4, 0}}).to_string(),
            expected);
  EXPECT_EQ(
      core::check_final_state(run, {{3, 1, 2, 3}, {0, 4}}).to_string(),
      "leader 2 done-set mismatch: knows 3 of 3 ids; missing 3; extraneous 0\n"
      "node 3 next = 4 but leader is 2\n"
      "node 3 next = 4 but leader is 2\n"
      "leader 4 done-set mismatch: knows 2 of 2 ids; missing 0; extraneous 3\n"
      "node 0 next = 2 but leader is 4\n");
}

TEST(Checker, AcceptsHonestRun) {
  const auto g = graph::random_weakly_connected(20, 20, 6);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  run.run();
  EXPECT_TRUE(core::check_final_state(run, g).ok());
}

TEST(Checker, MessageBoundRowsCoverAllLemmas) {
  sim::stats st;
  st.set_id_bits(8);
  const auto rows = core::check_message_bounds(st, 100, core::variant::generic);
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& row : rows) EXPECT_TRUE(row.ok());  // zero traffic: all ok
}

TEST(Checker, AdhocConquerCapIsZero) {
  sim::stats st;
  st.set_id_bits(8);
  st.record(core::conquer_msg(1, 1));
  const auto rows = core::check_message_bounds(st, 100, core::variant::adhoc);
  bool found = false;
  for (const auto& row : rows) {
    if (row.name.find("conquer") != std::string::npos) {
      found = true;
      EXPECT_FALSE(row.ok());  // any conquer message violates the Ad-hoc cap
    }
  }
  EXPECT_TRUE(found);
}

TEST(Checker, LivenessMonitorQuietOnCorrectRun) {
  const auto g = graph::random_weakly_connected(15, 20, 8);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  core::liveness_monitor mon(run, g.weak_components());
  run.net().add_observer(&mon);
  run.wake_all();
  run.run();
  EXPECT_TRUE(mon.ok());
}

TEST(Checker, KnowledgeAuditCountsSendsToUnknownIds) {
  // On the path 0 -> 1 -> 2, node 0 knows 1 but not 2.
  const auto g = graph::directed_path(3);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  testing::knowledge_audit audit(g);
  run.net().add_observer(&audit);
  sim::context ctx(run.net(), 0);

  ctx.send(1, sim::make_message<core::query_msg>(1));
  EXPECT_EQ(audit.violations(), 0);

  ctx.send(2, sim::make_message<core::query_msg>(1));
  EXPECT_EQ(audit.violations(), 1);
  EXPECT_EQ(audit.first_violation(), "0 -> 2 (query)");
}

TEST(Checker, ReportToStringListsEachViolation) {
  core::check_report rep;
  rep.violations = {"a", "b"};
  EXPECT_EQ(rep.to_string(), "a\nb\n");
  EXPECT_FALSE(rep.ok());
}

}  // namespace
}  // namespace asyncrd

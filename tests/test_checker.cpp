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

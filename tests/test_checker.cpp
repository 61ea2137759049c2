// The verification layer itself: it must flag broken outcomes, not just
// bless correct ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

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

// ------------------------------------------------------- check_membership
//
// check_membership is the verdict on every service-mode cluster (loadgen,
// the loopback tests).  Each case below snapshots a settled, passing run
// the way a discoveryd process reports its nodes, breaks one property, and
// pins the violation it must produce.

/// Every node's checkable state, as net::node_host reports it (dg_state).
std::vector<core::member_state> snapshot(const core::discovery_run& run) {
  std::vector<core::member_state> out;
  for (const node_id v : run.ids()) {
    const core::node& nd = run.at(v);
    core::member_state m;
    m.id = v;
    m.status = nd.status();
    m.next = nd.next();
    m.has_deferred = nd.has_deferred();
    m.has_pending = nd.pending_queue_depth() != 0;
    m.more_empty = nd.more().empty();
    m.unaware_empty = nd.unaware().empty();
    m.done.assign(nd.done().begin(), nd.done().end());
    out.push_back(std::move(m));
  }
  return out;
}

/// One weakly connected component of 20 nodes; every variant settles it.
const graph::digraph& settled_graph() {
  static const graph::digraph g = graph::random_weakly_connected(20, 20, 6);
  return g;
}

/// A settled run's snapshot, with the ids the cases perturb: the leader,
/// and a non-leader that no other node's next pointer names (so breaking
/// its own pointer breaks no other chain).
struct settled_members {
  explicit settled_members(core::variant v) : algo(v) {
    sim::unit_delay_scheduler sched;
    core::config cfg;
    cfg.algo = algo;
    core::discovery_run run(settled_graph(), cfg, sched);
    run.wake_all();
    run.run();
    EXPECT_TRUE(core::check_final_state(run, settled_graph()).ok());
    members = snapshot(run);
    for (const core::member_state& m : members)
      if (m.is_leader()) leader = m.id;
    for (const core::member_state& m : members) {
      if (m.id == leader) continue;
      const bool named = std::any_of(
          members.begin(), members.end(), [&m](const core::member_state& o) {
            return o.id != m.id && o.next == m.id;
          });
      if (!named) {
        leaf = m.id;
        break;
      }
    }
  }

  core::member_state& at(node_id v) {
    return *std::find_if(
        members.begin(), members.end(),
        [v](const core::member_state& m) { return m.id == v; });
  }

  std::string verdict() const {
    return core::check_membership(members, settled_graph().weak_components(),
                                  algo)
        .to_string();
  }

  core::variant algo;
  std::vector<core::member_state> members;
  node_id leader = invalid_node;
  node_id leaf = invalid_node;
};

TEST(CheckMembership, PassesTheSnapshotOfASettledRun) {
  for (const core::variant v : {core::variant::generic,
                                core::variant::bounded,
                                core::variant::adhoc}) {
    settled_members s(v);
    ASSERT_NE(s.leader, invalid_node);
    ASSERT_NE(s.leaf, invalid_node);
    EXPECT_EQ(s.verdict(), "") << core::to_string(v);
  }
}

TEST(CheckMembership, FlagsASecondLeader) {
  settled_members s(core::variant::generic);
  s.at(s.leaf).status = core::status_t::wait;
  EXPECT_EQ(s.verdict(), "component of node 0 has 2 leaders (expected 1)\n");
}

TEST(CheckMembership, FlagsAMissingMember) {
  settled_members s(core::variant::generic);
  s.members.erase(std::find_if(
      s.members.begin(), s.members.end(),
      [&s](const core::member_state& m) { return m.id == s.leaf; }));
  EXPECT_EQ(s.verdict(), "node " + std::to_string(s.leaf) +
                             " missing from the membership report\n");
}

TEST(CheckMembership, FlagsAMemberReportedTwice) {
  settled_members s(core::variant::generic);
  s.members.push_back(s.at(s.leaf));
  EXPECT_EQ(s.verdict(),
            "node " + std::to_string(s.leaf) + " reported twice\n");
}

TEST(CheckMembership, FlagsAMissingAndAnExtraneousDoneId) {
  settled_members s(core::variant::generic);
  std::vector<node_id>& done = s.at(s.leader).done;
  done.erase(std::find(done.begin(), done.end(), s.leaf));
  done.push_back(1000);
  EXPECT_EQ(s.verdict(),
            "leader " + std::to_string(s.leader) +
                " done-set mismatch: knows 20 of 20 ids; missing " +
                std::to_string(s.leaf) + "; extraneous 1000\n");
}

TEST(CheckMembership, FlagsAPassiveNonLeader) {
  settled_members s(core::variant::generic);
  s.at(s.leaf).status = core::status_t::passive;
  EXPECT_EQ(s.verdict(),
            "node " + std::to_string(s.leaf) +
                " finished in state passive (expected inactive)\n");
}

TEST(CheckMembership, FlagsAWrongNextUnderGeneric) {
  settled_members s(core::variant::generic);
  s.at(s.leaf).next = s.leaf;
  EXPECT_EQ(s.verdict(), "node " + std::to_string(s.leaf) + " next = " +
                             std::to_string(s.leaf) + " but leader is " +
                             std::to_string(s.leader) + "\n");
}

TEST(CheckMembership, FlagsAnAdhocChainThatMissesTheLeader) {
  settled_members s(core::variant::adhoc);
  s.at(s.leaf).next = s.leaf;
  EXPECT_EQ(s.verdict(), "node " + std::to_string(s.leaf) +
                             " next-pointer chain does not reach leader " +
                             std::to_string(s.leader) + "\n");
}

TEST(CheckMembership, FlagsDeferredAndPendingWork) {
  settled_members s(core::variant::generic);
  s.at(s.leaf).has_deferred = true;
  s.at(s.leaf).has_pending = true;
  EXPECT_EQ(s.verdict(), "node " + std::to_string(s.leaf) +
                             " still holds deferred messages\nnode " +
                             std::to_string(s.leaf) +
                             " still holds queued search/probe requests\n");
}

TEST(CheckMembership, FlagsABoundedLeaderThatDidNotTerminate) {
  settled_members s(core::variant::bounded);
  ASSERT_EQ(s.at(s.leader).status, core::status_t::terminated);
  s.at(s.leader).status = core::status_t::wait;
  EXPECT_EQ(s.verdict(), "bounded leader " + std::to_string(s.leader) +
                             " did not detect termination\n");
}

// On a run's own snapshot, check_membership returns check_final_state's
// list, violation for violation: on the three sparse-graph reproducers of
// the §1.2 liveness bug (each fails in some variant while that bug stands)
// and on a passing run, in all three variants.
TEST(CheckMembership, MatchesCheckFinalStateOnTheSameRun) {
  struct cell {
    std::size_t n, extra;
    std::uint64_t graph_seed, delay_seed;  // delay seed 0 = unit delays
  };
  for (const cell c : {cell{20, 20, 669, 0}, cell{14, 14, 686, 2},
                       cell{20, 20, 109, 1}, cell{20, 20, 6, 0}}) {
    for (const core::variant v : {core::variant::generic,
                                  core::variant::bounded,
                                  core::variant::adhoc}) {
      const auto g = graph::random_weakly_connected(c.n, c.extra, c.graph_seed);
      std::unique_ptr<sim::scheduler> sched;
      if (c.delay_seed == 0)
        sched = std::make_unique<sim::unit_delay_scheduler>();
      else
        sched = std::make_unique<sim::random_delay_scheduler>(c.delay_seed);
      core::config cfg;
      cfg.algo = v;
      core::discovery_run run(g, cfg, *sched);
      run.wake_all();
      run.run();
      EXPECT_EQ(
          core::check_membership(snapshot(run), g.weak_components(), v)
              .violations,
          core::check_final_state(run, g).violations)
          << "random:" << c.n << ":" << c.extra << ":" << c.graph_seed
          << " --seed " << c.delay_seed << " --variant " << core::to_string(v);
    }
  }
}

}  // namespace
}  // namespace asyncrd

// The verification layer itself: it must flag broken outcomes, not just
// bless correct ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/checker.h"
#include "core/runner.h"
#include "graph/topology.h"
#include "net/envelope.h"
#include "sim/wire.h"
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

/// Every node's checkable state, as a discoveryd process reports it.
std::vector<core::member_state> snapshot(const core::discovery_run& run) {
  std::vector<core::member_state> out;
  for (const node_id v : run.ids()) out.push_back(core::snapshot(run.at(v)));
  return out;
}

/// `members` after a trip through the dg_state record: encoded with
/// net::put_state and decoded with net::read_state, as loadgen receives
/// them.
std::vector<core::member_state> over_the_wire(
    const std::vector<core::member_state>& members) {
  std::vector<core::member_state> out;
  std::vector<std::uint8_t> record;
  for (const core::member_state& m : members) {
    record.clear();
    net::put_state(record, m);
    EXPECT_EQ(record.front(), net::dg_state);
    sim::wire::reader r(record.data() + 1, record.size() - 1);
    net::read_state(r, out.emplace_back());
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

// Parked work at the leader counts as much as at any member.
TEST(CheckMembership, FlagsALeaderWithQueuedRequests) {
  settled_members s(core::variant::generic);
  s.at(s.leader).has_pending = true;
  EXPECT_EQ(s.verdict(), "node " + std::to_string(s.leader) +
                             " still holds queued search/probe requests\n");
}

TEST(CheckMembership, FlagsALeaderWithDeferredMessages) {
  settled_members s(core::variant::bounded);
  s.at(s.leader).has_deferred = true;
  EXPECT_EQ(s.verdict(), "node " + std::to_string(s.leader) +
                             " still holds deferred messages\n");
}

TEST(CheckMembership, FlagsABoundedLeaderThatDidNotTerminate) {
  settled_members s(core::variant::bounded);
  ASSERT_EQ(s.at(s.leader).status, core::status_t::terminated);
  s.at(s.leader).status = core::status_t::wait;
  EXPECT_EQ(s.verdict(), "bounded leader " + std::to_string(s.leader) +
                             " did not detect termination\n");
}

// The verdict survives the state record: on a run's snapshot, sent
// through net::put_state and net::read_state, check_membership returns
// check_final_state's list, violation for violation.  The cells are the
// three sparse-graph reproducers of the §1.2 liveness bug (each fails in
// some variant while that bug stands) and a passing run, in all three
// variants.
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
          core::check_membership(over_the_wire(snapshot(run)),
                                 g.weak_components(), v)
              .violations,
          core::check_final_state(run, g).violations)
          << "random:" << c.n << ":" << c.extra << ":" << c.graph_seed
          << " --seed " << c.delay_seed << " --variant " << core::to_string(v);
    }
  }
}

// The live path words parked work as the service path does: every member,
// the leader included, in component order.  A settled run gets a
// merge_fail at its leader and at the lowest and highest other ids; no
// settled state consumes one, so each parks it.
TEST(Checker, NamesDeferredMessagesOnEveryMemberInComponentOrder) {
  const graph::digraph& g = settled_graph();
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  run.wake_all();
  run.run();
  ASSERT_TRUE(core::check_final_state(run, g).ok());
  const node_id leader = run.leaders().front();
  const std::vector<node_id> parked = {0, leader, 19};
  // The leader is listed mid-way, and the sender, node 1, parks nothing.
  ASSERT_TRUE(leader > 1 && leader < 19);
  sim::context ctx(run.net(), 1);
  for (const node_id v : parked)
    ctx.send(v, sim::make_message<core::merge_fail_msg>());
  run.net().run_to_quiescence();
  std::string expected;
  for (const node_id v : parked) {
    ASSERT_TRUE(run.at(v).has_deferred()) << "node " << v;
    expected += "node " + std::to_string(v) + " still holds deferred messages\n";
  }
  EXPECT_EQ(core::check_final_state(run, g).to_string(), expected);
}

// ------------------------------------------------------- dg_state record

TEST(StateDatagram, SettledMembersRoundTripUnchanged) {
  for (const core::variant v : {core::variant::generic,
                                core::variant::bounded,
                                core::variant::adhoc}) {
    settled_members s(v);
    s.at(s.leaf).has_deferred = true;  // every flag bit takes both values
    s.at(s.leaf).has_pending = true;
    const std::vector<core::member_state> decoded = over_the_wire(s.members);
    ASSERT_EQ(decoded.size(), s.members.size());
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      const core::member_state& a = s.members[i];
      const core::member_state& b = decoded[i];
      EXPECT_EQ(std::tie(a.id, a.status, a.next, a.has_deferred,
                         a.has_pending, a.more_empty, a.unaware_empty, a.done),
                std::tie(b.id, b.status, b.next, b.has_deferred,
                         b.has_pending, b.more_empty, b.unaware_empty, b.done))
          << core::to_string(v) << " node " << a.id;
    }
  }
}

/// Decodes a dg_state body (the bytes after the tag).
void decode_state(const std::vector<std::uint8_t>& body) {
  sim::wire::reader r(body.data(), body.size());
  core::member_state m;
  net::read_state(r, m);
}

TEST(StateDatagram, RejectsMalformedBodies) {
  core::member_state m;
  m.id = 7;
  m.status = core::status_t::inactive;
  m.next = 9;
  m.done = {1, 4};
  std::vector<std::uint8_t> record;
  net::put_state(record, m);
  const std::vector<std::uint8_t> body(record.begin() + 1, record.end());
  ASSERT_NO_THROW(decode_state(body));
  // Layout: [id 7][status][flags][next 9][count 2][1][delta 3].
  ASSERT_EQ(body, (std::vector<std::uint8_t>{7, 6, 0x0C, 9, 2, 1, 3}));

  const std::vector<std::uint8_t> truncated(body.begin(), body.end() - 1);
  EXPECT_THROW(decode_state(truncated), sim::wire::decode_error);

  std::vector<std::uint8_t> trailing = body;
  trailing.push_back(0);
  EXPECT_THROW(decode_state(trailing), sim::wire::decode_error);

  std::vector<std::uint8_t> bad_status = body;
  bad_status[1] = 0xFF;
  EXPECT_THROW(decode_state(bad_status), sim::wire::decode_error);

  // Id 2^32 as a varint: four continuation bytes of zero, then 0x10.
  std::vector<std::uint8_t> wide_id = {0x80, 0x80, 0x80, 0x80, 0x10};
  wide_id.insert(wide_id.end(), body.begin() + 1, body.end());
  EXPECT_THROW(decode_state(wide_id), sim::wire::decode_error);

  std::vector<std::uint8_t> unsorted = body;
  unsorted.back() = 0;  // a zero delta repeats id 1
  EXPECT_THROW(decode_state(unsorted), sim::wire::decode_error);
}

}  // namespace
}  // namespace asyncrd

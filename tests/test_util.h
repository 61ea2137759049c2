// Shared helpers for the algorithm test suites: run one execution with full
// instrumentation (final-state checker, Lemma 5.1 liveness monitor, Figure 1
// transition recorder, knowledge-graph discipline audit) and assert all of
// it inside gtest.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/checker.h"
#include "core/messages.h"
#include "core/runner.h"
#include "core/trace.h"
#include "graph/digraph.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace asyncrd::testing {

/// Audits the knowledge-graph discipline: every send must target a node
/// the sender knows.  It reads only the message stream, never engine state,
/// so it checks the engine instead of trusting the engine's own record.
/// known(v) starts as out_E0(v) ∪ {v} and grows by the model's rule (§1:
/// E grows "each time a node receives an id of a node it did not know of"):
/// a delivery teaches the receiver the sender and every id in the payload.
/// Drivers that grow the graph outside the message stream (dynamic joins
/// and links, §6) report each new edge with add_edge.
class knowledge_audit final : public sim::observer {
 public:
  explicit knowledge_audit(const graph::digraph& g) {
    for (const node_id v : g.nodes()) {
      std::unordered_set<node_id>& k = learned_[v];
      k.insert(g.out(v).begin(), g.out(v).end());
      k.insert(v);
    }
  }

  /// The driver gave `u` the id `v` (a joining node's initial contacts, or
  /// add_link_dynamic).  `u` also knows itself, which covers a new node.
  void add_edge(node_id u, node_id v) { learned_[u].insert({u, v}); }

  void on_event(const sim::event_record& r) override {
    if (r.what == sim::event_record::kind::send)
      check_send(r.from, r.to, *r.m);
    else if (r.what == sim::event_record::kind::deliver)
      learn_delivery(r.from, r.to, *r.m);
  }

  int violations() const noexcept { return violations_; }
  const std::string& first_violation() const noexcept { return detail_; }

 private:
  void check_send(node_id from, node_id to, const sim::message& m) {
    if (learned_[from].contains(to)) return;
    ++violations_;
    if (detail_.empty())
      detail_ = std::to_string(from) + " -> " + std::to_string(to) + " (" +
                std::string(m.type_name()) + ")";
  }

  void learn_delivery(node_id from, node_id to, const sim::message& m) {
    using core::msg_kind;
    std::unordered_set<node_id>& k = learned_[to];
    k.insert(from);
    const auto learn = [&k](const core::id_vec& ids) {
      k.insert(ids.begin(), ids.end());
    };
    switch (static_cast<msg_kind>(m.dispatch_tag())) {
      case msg_kind::query_reply:
        learn(static_cast<const core::query_reply_msg&>(m).ids);
        break;
      case msg_kind::search: {
        const auto& s = static_cast<const core::search_msg&>(m);
        k.insert({s.initiator, s.target});
        break;
      }
      case msg_kind::release: {
        const auto& r = static_cast<const core::release_msg&>(m);
        k.insert({r.from_leader, r.initiator});
        break;
      }
      case msg_kind::merge_accept:
        k.insert(static_cast<const core::merge_accept_msg&>(m).conqueror);
        break;
      case msg_kind::info: {
        const auto& i = static_cast<const core::info_msg&>(m);
        learn(i.more);
        learn(i.done);
        learn(i.unaware);
        learn(i.unexplored);
        break;
      }
      case msg_kind::conquer:
        k.insert(static_cast<const core::conquer_msg&>(m).leader);
        break;
      case msg_kind::probe:
        k.insert(static_cast<const core::probe_msg&>(m).requester);
        break;
      case msg_kind::probe_reply: {
        const auto& pr = static_cast<const core::probe_reply_msg&>(m);
        k.insert({pr.leader, pr.requester});
        learn(pr.census);
        break;
      }
      case msg_kind::report:
        k.insert(static_cast<const core::report_msg&>(m).reporter);
        break;
      case msg_kind::report_ack: {
        const auto& ra = static_cast<const core::report_ack_msg&>(m);
        k.insert({ra.leader, ra.reporter});
        break;
      }
      default:
        break;  // query, merge_fail and more_done carry no ids
    }
  }

  std::unordered_map<node_id, std::unordered_set<node_id>> learned_;
  int violations_ = 0;
  std::string detail_;
};

struct instrumented_result {
  core::run_summary summary;
  core::transition_recorder transitions;
};

/// Runs `algo` on `g` with every monitor armed; any violation fails the
/// current gtest assertion context.  Returns the summary for further checks.
inline instrumented_result run_instrumented(const graph::digraph& g,
                                            core::variant algo,
                                            std::uint64_t seed,
                                            bool check_bounds = true) {
  instrumented_result out;

  std::unique_ptr<sim::scheduler> sched;
  if (seed == 0)
    sched = std::make_unique<sim::unit_delay_scheduler>();
  else
    sched = std::make_unique<sim::random_delay_scheduler>(seed);

  core::config cfg;
  cfg.algo = algo;
  cfg.trace = &out.transitions;
  core::discovery_run run(g, cfg, *sched);

  knowledge_audit audit(g);
  core::structure_monitor structure(run);
  core::liveness_monitor live(run, g.weak_components());
  run.net().add_observer(&audit);
  run.net().add_observer(&structure);
  run.net().add_observer(&live);

  run.wake_all();
  const sim::run_result r = run.run();
  EXPECT_TRUE(r.completed) << "event cap exceeded";

  const core::check_report rep = core::check_final_state(run, g);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_TRUE(live.ok()) << live.violations().front();
  EXPECT_TRUE(structure.ok()) << structure.violations().front();
  EXPECT_EQ(audit.violations(), 0)
      << "knowledge-graph discipline violated: " << audit.first_violation();
  EXPECT_TRUE(out.transitions.illegal_edges().empty())
      << "illegal state transition: "
      << core::edge_to_string(out.transitions.illegal_edges().front());

  if (check_bounds) {
    for (const auto& row :
         core::check_message_bounds(run.statistics(), g.node_count(), algo)) {
      EXPECT_TRUE(row.ok()) << row.name << ": measured " << row.measured
                            << " > cap " << row.cap;
    }
  }

  out.summary.messages = run.statistics().total_messages();
  out.summary.bits = run.statistics().total_bits();
  out.summary.events = r.events_processed;
  out.summary.leaders = run.leaders();
  out.summary.completed = r.completed;
  return out;
}

}  // namespace asyncrd::testing

// Verification of the Asynchronous Resource Discovery specification
// (paper §1.2) against a finished or in-flight execution.
//
//  * check_final_state / check_membership — the steady-state requirements:
//    safety (1)-(3) [or (3a)/(3b) for Ad-hoc] plus liveness (4): exactly
//    one leader per weakly connected component, the leader knows every id,
//    every non-leader knows (or can reach, in the Ad-hoc relaxation) the
//    leader.  One verdict, over a live run's nodes or over the
//    member_states a service-mode cluster reports.
//  * liveness_monitor — checked after *every* delivery: at least one node
//    per component remains in a leader state (Lemma 5.1).
//  * check_message_bounds — Lemmas 5.5-5.8 per-message-type caps.
#pragma once

#include <string>
#include <vector>

#include "core/runner.h"
#include "graph/digraph.h"
#include "sim/network.h"
#include "sim/stats.h"

namespace asyncrd::core {

struct check_report {
  std::vector<std::string> violations;
  bool ok() const noexcept { return violations.empty(); }
  /// All violations joined with newlines (for gtest failure messages).
  std::string to_string() const;
};

/// One node's checkable final state: what the §1.2 verdict reads of each
/// node.  check_final_state reads it off a live node (a leader's done set
/// in place); a service-mode process ships it to the orchestrator in a
/// dg_state datagram (snapshot, net::put_state / net::read_state), so a
/// cluster the orchestrator does not host is judged by the same verdict.
struct member_state {
  node_id id = invalid_node;
  status_t status = status_t::asleep;
  node_id next = invalid_node;
  bool has_deferred = false;
  bool has_pending = false;   ///< pending_queue_depth() != 0
  bool more_empty = true;
  bool unaware_empty = true;
  /// The node's done set (leaders only need it; harmless elsewhere).
  std::vector<node_id> done;

  bool is_leader() const noexcept { return is_leader_status(status); }
};

/// A live node's member_state; `done` comes out ascending.
member_state snapshot(const node& nd);

/// Verifies the final state of `run` against the weak components of `g`.
/// Assumes every node was woken.  `g` must describe the final topology
/// (including any dynamic additions).
check_report check_final_state(const discovery_run& run,
                               const graph::digraph& g);

/// Same, against explicit component lists (members in any order).
check_report check_final_state(
    const discovery_run& run,
    const std::vector<std::vector<node_id>>& components);

/// The same verdict over reported member_states instead of a live run.
/// Members missing from `members`, or reported twice, are violations too.
check_report check_membership(
    const std::vector<member_state>& members,
    const std::vector<std::vector<node_id>>& components, variant algo);

/// Lemma 5.1 invariant, evaluated after every delivery when installed as
/// the network observer: every component retains >= 1 leader-state node.
/// Violations are accumulated (with timestamps) rather than thrown.
class liveness_monitor final : public sim::observer {
 public:
  liveness_monitor(const discovery_run& run,
                   std::vector<std::vector<node_id>> components)
      : run_(&run), components_(std::move(components)) {}

  void on_event(const sim::event_record& r) override;

  const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  bool ok() const noexcept { return violations_.empty(); }

 private:
  const discovery_run* run_;
  std::vector<std::vector<node_id>> components_;
  std::vector<std::string> violations_;
};

/// Structural invariant, checked after every delivery when installed as an
/// observer: the next-pointer graph restricted to inactive nodes is acyclic
/// — every routing chain reaches a non-inactive node within n hops.  A cycle
/// would wedge every search routed into it; the engine prevents cycles by
/// keeping pointer updates monotone in (phase, id).
class structure_monitor final : public sim::observer {
 public:
  explicit structure_monitor(const discovery_run& run) : run_(&run) {}

  void on_event(const sim::event_record& r) override;

  const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  bool ok() const noexcept { return violations_.empty(); }

 private:
  const discovery_run* run_;
  std::vector<std::string> violations_;
};

/// Measured-vs-cap row for one of the Lemma 5.5-5.8 bounds.
struct bound_row {
  std::string name;
  std::uint64_t measured = 0;
  double cap = 0.0;
  bool ok() const noexcept { return static_cast<double>(measured) <= cap; }
};

/// Evaluates the paper's per-message-type caps for an n-node run:
///   Lemma 5.5: query + query_reply          <= 4n
///   Lemma 5.6: search + release             <= C * n * alpha(n, n)
///   Lemma 5.7: merge_accept + merge_fail + info <= 2n
///   Lemma 5.8: conquer + more_done          <= 2 n log n  (generic)
///                                           <= 2n         (bounded)
///                                           == 0          (adhoc)
/// `search_release_constant` is the constant for the asymptotic Lemma 5.6
/// bound (the paper proves O(n alpha); we audit with an explicit C).
std::vector<bound_row> check_message_bounds(const sim::stats& st,
                                            std::size_t n, variant algo,
                                            double search_release_constant = 8.0);

}  // namespace asyncrd::core

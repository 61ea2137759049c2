#include "core/checker.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "common/bitmath.h"
#include "unionfind/ackermann.h"

namespace asyncrd::core {

namespace {

std::string describe(node_id v) { return "node " + std::to_string(v); }

/// Property (2)'s violation text: the leader's `done` set differs from the
/// component's.
std::string done_mismatch(node_id lid, const std::set<node_id>& done,
                          const std::set<node_id>& expected) {
  std::ostringstream ss;
  ss << "leader " << lid << " done-set mismatch: knows " << done.size()
     << " of " << expected.size() << " ids";
  for (const node_id v : expected)
    if (!done.contains(v)) ss << "; missing " << v;
  for (const node_id v : done)
    if (!expected.contains(v)) ss << "; extraneous " << v;
  return ss.str();
}

}  // namespace

std::string check_report::to_string() const {
  std::ostringstream ss;
  for (const auto& v : violations) ss << v << '\n';
  return ss.str();
}

check_report check_final_state(const discovery_run& run,
                               const graph::digraph& g) {
  return check_final_state(run, g.weak_components());
}

check_report check_final_state(
    const discovery_run& run,
    const std::vector<std::vector<node_id>>& components) {
  check_report rep;
  auto fail = [&rep](const std::string& s) { rep.violations.push_back(s); };

  for (const auto& comp : components) {
    // --- property (4): exactly one leader per weakly connected component.
    std::vector<node_id> leaders;
    for (const node_id v : comp) {
      const node& nd = run.at(v);
      if (nd.status() == status_t::asleep)
        fail(describe(v) + " never woke up");
      if (nd.is_leader()) leaders.push_back(v);
    }
    if (leaders.size() != 1) {
      std::ostringstream ss;
      ss << "component of " << describe(comp.front()) << " has "
         << leaders.size() << " leaders (expected 1)";
      fail(ss.str());
      continue;
    }
    const node_id lid = leaders.front();
    const node& leader = run.at(lid);

    // --- property (2): the leader knows the ids of all its nodes.
    // At quiescence the explore loop has drained more/unexplored, so the
    // leader's `done` must equal the component exactly.  `done` iterates
    // ascending; so does a component from digraph::weak_components, and
    // the two compare element by element.  Any other member list is sorted
    // and deduplicated first.  The sets are built only to word a mismatch.
    const flat_set<node_id>& done = leader.done();
    std::vector<node_id> sorted;
    const std::vector<node_id>* members = &comp;
    if (std::adjacent_find(comp.begin(), comp.end(),
                           std::greater_equal<>()) != comp.end()) {
      sorted = comp;
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      members = &sorted;
    }
    if (!std::equal(done.begin(), done.end(), members->begin(),
                    members->end()))
      fail(done_mismatch(lid, {done.begin(), done.end()},
                         {comp.begin(), comp.end()}));
    if (!leader.more().empty())
      fail("leader " + std::to_string(lid) + " has a non-empty more set");
    if (!leader.unaware().empty())
      fail("leader " + std::to_string(lid) + " has a non-empty unaware set");

    // --- properties (1) and (3)/(3a,3b): non-leaders are inactive and
    // know / can reach the leader.
    for (const node_id v : comp) {
      if (v == lid) continue;
      const node& nd = run.at(v);
      if (nd.status() != status_t::inactive)
        fail(describe(v) + " finished in state " +
             std::string(to_string(nd.status())) + " (expected inactive)");
      if (run.cfg().algo == variant::adhoc) {
        // (3b): next pointers induce a directed path to the leader.
        node_id cur = v;
        std::size_t hops = 0;
        while (cur != lid && hops <= comp.size()) {
          const node_id nxt = run.at(cur).next();
          if (nxt == cur) break;
          cur = nxt;
          ++hops;
        }
        if (cur != lid)
          fail(describe(v) + " next-pointer chain does not reach leader " +
               std::to_string(lid));
      } else {
        // (3): all nodes know the id of their leader directly.
        if (nd.next() != lid)
          fail(describe(v) + " next = " + std::to_string(nd.next()) +
               " but leader is " + std::to_string(lid));
      }
      // No parked work may remain anywhere.
      if (nd.has_deferred()) {
        std::string types;
        for (const auto& t : nd.deferred_types()) types += " " + t;
        fail(describe(v) + " still holds deferred messages:" + types);
      }
      if (nd.pending_queue_depth() != 0)
        fail(describe(v) + " still holds queued search/probe requests");
    }
    if (leader.has_deferred()) {
      std::string types;
      for (const auto& t : leader.deferred_types()) types += " " + t;
      fail(describe(lid) + " (leader) still holds deferred messages:" + types);
    }

    // Bounded: Theorem 4 — the leader detects termination.
    if (run.cfg().algo == variant::bounded &&
        leader.status() != status_t::terminated)
      fail("bounded leader " + std::to_string(lid) +
           " did not detect termination");
  }
  return rep;
}

check_report check_membership(
    const std::vector<member_state>& members,
    const std::vector<std::vector<node_id>>& components, variant algo) {
  check_report rep;
  auto fail = [&rep](const std::string& s) { rep.violations.push_back(s); };

  std::map<node_id, const member_state*> by_id;
  for (const member_state& m : members) {
    if (!by_id.emplace(m.id, &m).second)
      fail(describe(m.id) + " reported twice");
  }

  for (const auto& comp : components) {
    // --- property (4): exactly one leader per weakly connected component.
    std::vector<node_id> leaders;
    bool complete = true;
    for (const node_id v : comp) {
      const auto it = by_id.find(v);
      if (it == by_id.end()) {
        fail(describe(v) + " missing from the membership report");
        complete = false;
        continue;
      }
      const member_state& m = *it->second;
      if (m.status == status_t::asleep) fail(describe(v) + " never woke up");
      if (m.is_leader()) leaders.push_back(v);
    }
    if (!complete) continue;
    if (leaders.size() != 1) {
      std::ostringstream ss;
      ss << "component of " << describe(comp.front()) << " has "
         << leaders.size() << " leaders (expected 1)";
      fail(ss.str());
      continue;
    }
    const node_id lid = leaders.front();
    const member_state& leader = *by_id.at(lid);

    // --- property (2): the leader knows the ids of all its nodes.
    const std::set<node_id> done(leader.done.begin(), leader.done.end());
    const std::set<node_id> expected(comp.begin(), comp.end());
    if (done != expected) fail(done_mismatch(lid, done, expected));
    if (!leader.more_empty)
      fail("leader " + std::to_string(lid) + " has a non-empty more set");
    if (!leader.unaware_empty)
      fail("leader " + std::to_string(lid) + " has a non-empty unaware set");

    // --- properties (1) and (3)/(3a,3b): non-leaders are inactive and
    // know / can reach the leader.
    for (const node_id v : comp) {
      const member_state& m = *by_id.at(v);
      if (v != lid) {
        if (m.status != status_t::inactive)
          fail(describe(v) + " finished in state " +
               std::string(to_string(m.status)) + " (expected inactive)");
        if (algo == variant::adhoc) {
          // (3b): next pointers induce a directed path to the leader.
          node_id cur = v;
          std::size_t hops = 0;
          while (cur != lid && hops <= comp.size()) {
            const auto cit = by_id.find(cur);
            if (cit == by_id.end()) break;
            const node_id nxt = cit->second->next;
            if (nxt == cur) break;
            cur = nxt;
            ++hops;
          }
          if (cur != lid)
            fail(describe(v) + " next-pointer chain does not reach leader " +
                 std::to_string(lid));
        } else {
          // (3): all nodes know the id of their leader directly.
          if (m.next != lid)
            fail(describe(v) + " next = " + std::to_string(m.next) +
                 " but leader is " + std::to_string(lid));
        }
      }
      // No parked work may remain anywhere.
      if (m.has_deferred)
        fail(describe(v) + " still holds deferred messages");
      if (m.has_pending)
        fail(describe(v) + " still holds queued search/probe requests");
    }

    // Bounded: Theorem 4 — the leader detects termination.
    if (algo == variant::bounded && leader.status != status_t::terminated)
      fail("bounded leader " + std::to_string(lid) +
           " did not detect termination");
  }
  return rep;
}

void liveness_monitor::on_event(const sim::event_record& r) {
  if (r.what != sim::event_record::kind::deliver) return;
  for (const auto& comp : components_) {
    bool has_leader = false;
    for (const node_id v : comp) {
      if (run_->at(v).is_leader()) {
        has_leader = true;
        break;
      }
    }
    if (!has_leader) {
      std::ostringstream ss;
      ss << "t=" << r.at << ": component of node " << comp.front()
         << " has no leader (Lemma 5.1 violated)";
      violations_.push_back(ss.str());
      if (violations_.size() > 16) return;  // avoid flooding
    }
  }
}

void structure_monitor::on_event(const sim::event_record& r) {
  if (r.what != sim::event_record::kind::deliver) return;
  if (violations_.size() < 16) {
    const std::vector<node_id> ids = run_->ids();
    const std::size_t limit = ids.size() + 1;
    for (const node_id v : ids) {
      const node& nd = run_->at(v);
      if (nd.status() != status_t::inactive) continue;
      // Walk the chain; it must exit the inactive set within n hops.
      node_id cur = v;
      std::size_t hops = 0;
      while (run_->at(cur).status() == status_t::inactive && hops <= limit) {
        const node_id nxt = run_->at(cur).next();
        if (nxt == cur) break;  // self-pointing inactive node: broken
        cur = nxt;
        ++hops;
      }
      // Still inactive after the walk => self-pointer or a cycle.
      if (run_->at(cur).status() == status_t::inactive) {
        std::ostringstream ss;
        ss << "t=" << r.at << ": routing chain from inactive node " << v
           << " does not leave the inactive set (cycle or self-pointer)";
        violations_.push_back(ss.str());
      }
    }
  }
}

std::vector<bound_row> check_message_bounds(const sim::stats& st,
                                            std::size_t n, variant algo,
                                            double search_release_constant) {
  const double dn = static_cast<double>(n);
  const double log_n = n >= 2 ? std::max(1.0, std::log2(dn)) : 1.0;
  const double alpha =
      static_cast<double>(uf::inverse_ackermann(n, std::max<std::size_t>(n, 1)));

  std::vector<bound_row> rows;
  rows.push_back({"query+query_reply (Lem 5.5: <=4n)",
                  st.messages_of_any({"query", "query_reply"}), 4.0 * dn});
  rows.push_back({"search+release (Lem 5.6: O(n a(n,n)))",
                  st.messages_of_any({"search", "release"}),
                  search_release_constant * dn * alpha});
  // Reproduction note (documented in EXPERIMENTS.md): Lemma 5.7 states 2n,
  // but its proof assumes a node sends at most one release-merge ever.
  // Fig 4 allows passive -> conquered again after a merge fail, so a node
  // can offer repeatedly; each *failed* offer still consumes a distinct
  // initiator's leadership, giving <= n failures + 2(n-1) accept/info
  // messages = 3n - 2.  Executions measurably exceed 2n (~2.2n observed);
  // we audit against the corrected O(n) constant.
  rows.push_back({"merge_accept+merge_fail+info (Lem 5.7: <=3n-2, paper says 2n)",
                  st.messages_of_any({"merge_accept", "merge_fail", "info"}),
                  3.0 * dn});
  double conquer_cap = 0.0;
  switch (algo) {
    case variant::generic: conquer_cap = 2.0 * dn * log_n; break;
    case variant::bounded: conquer_cap = 2.0 * dn; break;
    case variant::adhoc: conquer_cap = 0.0; break;
  }
  rows.push_back({"conquer+more_done (Lem 5.8)",
                  st.messages_of_any({"conquer", "more_done"}), conquer_cap});
  return rows;
}

}  // namespace asyncrd::core

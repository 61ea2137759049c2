#include "core/checker.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <set>
#include <sstream>

#include "common/bitmath.h"
#include "common/flat_hash.h"
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

/// A live node's member_state less its done set, which the verdict reads
/// in place (done_of below): a leader's holds its whole component, and a
/// copy would raise a large run's peak memory.
member_state scalars(const node& nd) {
  return {.id = nd.id(),
          .status = nd.status(),
          .next = nd.next(),
          .has_deferred = nd.has_deferred(),
          .has_pending = nd.pending_queue_depth() != 0,
          .more_empty = nd.more().empty(),
          .unaware_empty = nd.unaware().empty(),
          .done = {}};
}

/// The §1.2 verdict, written once.  `lookup(v)` returns node v's
/// member_state, or nothing when v was not reported; `done_of(m)` returns
/// the done set of the leader whose state is `m`.  Violations are appended
/// to `rep` component by component, members in list order.
template <typename Lookup, typename DoneOf>
void check_components(const std::vector<std::vector<node_id>>& components,
                      variant algo, const Lookup& lookup,
                      const DoneOf& done_of, check_report& rep) {
  auto fail = [&rep](const std::string& s) { rep.violations.push_back(s); };

  for (const auto& comp : components) {
    // --- property (4): exactly one leader per weakly connected component.
    std::vector<node_id> leaders;
    bool complete = true;
    for (const node_id v : comp) {
      const std::optional<member_state> m = lookup(v);
      if (!m) {
        fail(describe(v) + " missing from the membership report");
        complete = false;
        continue;
      }
      if (m->status == status_t::asleep) fail(describe(v) + " never woke up");
      if (m->is_leader()) leaders.push_back(v);
    }
    if (!complete) continue;
    if (leaders.size() != 1) {
      fail("component of " + describe(comp.front()) + " has " +
           std::to_string(leaders.size()) + " leaders (expected 1)");
      continue;
    }
    const node_id lid = leaders.front();
    const member_state leader = *lookup(lid);

    // --- property (2): the leader knows the ids of all its nodes.
    // At quiescence the explore loop has drained more/unexplored, so the
    // leader's `done` must equal the component, both taken as sets.  Done
    // sets and components from digraph::weak_components ascend, and then
    // compare element by element; sets are built only for any other member
    // list and to word a mismatch.
    const auto& done = done_of(leader);
    if (std::adjacent_find(comp.begin(), comp.end(), std::greater_equal<>()) !=
            comp.end() ||
        !std::equal(done.begin(), done.end(), comp.begin(), comp.end())) {
      const std::set<node_id> known(done.begin(), done.end()),
          expected(comp.begin(), comp.end());
      if (known != expected) fail(done_mismatch(lid, known, expected));
    }
    if (!leader.more_empty)
      fail("leader " + std::to_string(lid) + " has a non-empty more set");
    if (!leader.unaware_empty)
      fail("leader " + std::to_string(lid) + " has a non-empty unaware set");

    // --- properties (1) and (3)/(3a,3b): non-leaders are inactive and
    // know / can reach the leader.  No parked work may remain anywhere.
    for (const node_id v : comp) {
      std::optional<member_state> other;
      const member_state& m = v == lid ? leader : *(other = lookup(v));
      if (v != lid) {
        if (m.status != status_t::inactive)
          fail(describe(v) + " finished in state " +
               std::string(to_string(m.status)) + " (expected inactive)");
        if (algo == variant::adhoc) {
          // (3b): next pointers induce a directed path to the leader.
          node_id cur = v;
          std::size_t hops = 0;
          while (cur != lid && hops <= comp.size()) {
            const std::optional<member_state> c = lookup(cur);
            if (!c || c->next == cur) break;
            cur = c->next;
            ++hops;
          }
          if (cur != lid)
            fail(describe(v) + " next-pointer chain does not reach leader " +
                 std::to_string(lid));
        } else if (m.next != lid) {
          // (3): all nodes know the id of their leader directly.
          fail(describe(v) + " next = " + std::to_string(m.next) +
               " but leader is " + std::to_string(lid));
        }
      }
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
}

}  // namespace

std::string check_report::to_string() const {
  std::ostringstream ss;
  for (const auto& v : violations) ss << v << '\n';
  return ss.str();
}

member_state snapshot(const node& nd) {
  member_state m = scalars(nd);
  m.done.assign(nd.done().begin(), nd.done().end());
  return m;
}

check_report check_final_state(const discovery_run& run,
                               const graph::digraph& g) {
  return check_final_state(run, g.weak_components());
}

check_report check_final_state(
    const discovery_run& run,
    const std::vector<std::vector<node_id>>& components) {
  check_report rep;
  check_components(
      components, run.cfg().algo,
      [&run](node_id v) { return std::optional(scalars(run.at(v))); },
      [&run](const member_state& m) -> const auto& {
        return run.at(m.id).done();
      },
      rep);
  return rep;
}

check_report check_membership(
    const std::vector<member_state>& members,
    const std::vector<std::vector<node_id>>& components, variant algo) {
  check_report rep;
  flat_u64_map index;  // id -> position in `members`; the first report wins
  index.reserve(members.size());
  for (std::uint32_t i = 0; i < members.size(); ++i)
    if (!index.try_insert(members[i].id, i))
      rep.violations.push_back(describe(members[i].id) + " reported twice");
  check_components(
      components, algo,
      [&](node_id v) -> std::optional<member_state> {
        const std::uint32_t i = index.find(v);
        if (i == flat_u64_map::npos) return std::nullopt;
        return members[i];
      },
      [](const member_state& m) -> const auto& { return m.done; }, rep);
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

// The §1.1 comparison table: this paper's three algorithms against the
// prior-work baselines.
//
//   flooding          asynchronous, naive            Theta(n |E|) msgs
//   Name-Dropper      synchronous randomized (HBLL)  O(n log^2 n) msgs whp
//   pointer-doubling  synchronous deterministic      |E|-and-diameter bound
//   token DFS         strongly connected only (CGK contrast)  O(|E|) msgs
//   Generic           asynchronous deterministic     O(n log n) msgs
//   Bounded / Ad-hoc  asynchronous deterministic     O(n alpha(n,n)) msgs
//
// Reproduction: shared topologies, one table per density regime.  The shape
// to reproduce: the paper's algorithms beat flooding by orders of magnitude
// in both messages and bits on dense graphs, match or beat the synchronous
// baselines without needing synchrony, and Ad-hoc/Bounded shave the log
// factor off Generic.
#include <iostream>

#include "bench_report.h"
#include "baselines/absorption.h"
#include "baselines/dfs_election.h"
#include "baselines/flooding.h"
#include "baselines/name_dropper.h"
#include "baselines/pointer_doubling.h"
#include "common/bitmath.h"
#include "common/table.h"
#include "core/runner.h"
#include "graph/topology.h"

int main(int argc, char** argv) {
  using namespace asyncrd;
  std::cout << "== Comparison: paper's algorithms vs baselines (§1.1) ==\n\n";

  bench::reporter rep("baselines", argc, argv);
  bool all_ok = true;

  for (const std::size_t n : {64u, 256u, 1024u}) {
    for (const bool dense : {false, true}) {
      const std::size_t extra = dense ? n * ceil_log2(n) : n / 2;
      const auto g = graph::random_weakly_connected(n, extra, 17 + n);
      std::cout << "--- n = " << n << ", |E0| = " << g.edge_count()
                << (dense ? " (dense)" : " (sparse)") << " ---\n";
      text_table t({"algorithm", "model", "messages", "bits", "rounds"});

      const auto generic = core::run_discovery(g, core::variant::generic, 1);
      const auto bounded = core::run_discovery(g, core::variant::bounded, 1);
      const auto adhoc = core::run_discovery(g, core::variant::adhoc, 1);
      const auto nd = baselines::run_name_dropper(g, 1);
      const auto ab = baselines::run_absorption(g, 1);
      const auto pd = baselines::run_pointer_doubling(g);
      all_ok = all_ok && generic.completed && bounded.completed &&
               adhoc.completed && generic.violations.empty() &&
               bounded.violations.empty() && adhoc.violations.empty() &&
               nd.converged && ab.converged && pd.converged;
      const double dn = static_cast<double>(n);
      const double lg = static_cast<double>(ceil_log2(n));
      const std::string suffix = dense ? "/dense" : "/sparse";
      rep.add("name_dropper" + suffix, dn, static_cast<double>(nd.messages),
              dn * lg * lg);
      rep.add("generic" + suffix, dn, static_cast<double>(generic.messages),
              dn * lg);
      rep.add("bounded" + suffix, dn, static_cast<double>(bounded.messages),
              4.0 * dn);
      rep.add("adhoc" + suffix, dn, static_cast<double>(adhoc.messages),
              4.0 * dn);
      rep.merge_types(generic.by_type);
      rep.merge_types(bounded.by_type);
      rep.merge_types(adhoc.by_type);

      // Flooding is the point of the contrast — and precisely because its
      // cost is superquadratic it is only simulated up to n = 256 here.
      if (n <= 256) {
        const auto flood = baselines::run_flooding(g, 1);
        all_ok = all_ok && flood.converged;
        rep.add("flooding" + suffix, dn, static_cast<double>(flood.messages),
                dn * static_cast<double>(g.edge_count()));
        t.add_row({"flooding (naive)", "async", std::to_string(flood.messages),
                   std::to_string(flood.bits), "-"});
      } else {
        t.add_row({"flooding (naive)", "async", "(skipped: superquadratic)",
                   "-", "-"});
      }
      t.add_row({"Name-Dropper (HBLL'99)", "sync rand",
                 std::to_string(nd.messages), std::to_string(nd.bits),
                 std::to_string(nd.rounds)});
      t.add_row({"absorption (Law-Siu-style)", "sync rand",
                 std::to_string(ab.messages), std::to_string(ab.bits),
                 std::to_string(ab.rounds)});
      t.add_row({"pointer-doubling (KPV-style)", "sync det",
                 std::to_string(pd.messages), std::to_string(pd.bits),
                 std::to_string(pd.rounds)});
      t.add_row({"Generic (this paper)", "async det",
                 std::to_string(generic.messages),
                 std::to_string(generic.bits), "-"});
      t.add_row({"Bounded (this paper)", "async det",
                 std::to_string(bounded.messages),
                 std::to_string(bounded.bits), "-"});
      t.add_row({"Ad-hoc (this paper)", "async det",
                 std::to_string(adhoc.messages), std::to_string(adhoc.bits),
                 "-"});
      t.print(std::cout);
      std::cout << '\n';
    }
  }

  // Strongly connected contrast: the regime where resource discovery is
  // easy (the paper cites Cidon-Gopal-Kutten's O(n) election).
  std::cout << "--- strongly connected contrast (ring, n = 1024) ---\n";
  const auto ring = graph::ring(1024);
  const auto dfs = baselines::run_dfs_election(ring);
  const auto ring_generic = core::run_discovery(ring, core::variant::generic, 1);
  all_ok = all_ok && dfs.converged && ring_generic.completed &&
           ring_generic.violations.empty();
  text_table t2({"algorithm", "messages"});
  t2.add_row({"token DFS election (CGK contrast)", std::to_string(dfs.messages)});
  t2.add_row({"Generic (this paper)", std::to_string(ring_generic.messages)});
  t2.print(std::cout);

  std::cout << "\npaper: §1.1 — expect flooding >> Name-Dropper ~ Generic >"
               " Bounded > Ad-hoc in messages on dense graphs, flooding's\n"
               "bits worse by a ~n factor, and the strongly-connected token"
               " DFS linear (no log factor).\n";
  return rep.finish(all_ok);
}

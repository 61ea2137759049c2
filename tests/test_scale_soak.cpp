// Scale checks and a randomized soak: large single runs stay within their
// asymptotic envelopes, and a long randomized sequence of mixed operations
// (partial executions, probes, dynamic joins and links) never violates the
// spec at any quiescence point.
#include <gtest/gtest.h>

#include "asyncrd.h"
#include "test_util.h"

namespace asyncrd {
namespace {

TEST(Scale, TenThousandNodesAdhoc) {
  const std::size_t n = 10'000;
  const auto g = graph::random_weakly_connected(n, n, 99);
  const auto s = core::run_discovery(g, core::variant::adhoc, 1);
  ASSERT_TRUE(s.completed);
  EXPECT_EQ(s.violations, std::vector<std::string>{});
  // O(n alpha): stay under a generous linear envelope.
  EXPECT_LE(s.messages, 16u * n);
}

TEST(Scale, TenThousandNodesGenericWithinNLogN) {
  const std::size_t n = 10'000;
  const auto g = graph::random_weakly_connected(n, n, 7);
  const auto s = core::run_discovery(g, core::variant::generic, 1);
  ASSERT_TRUE(s.completed);
  EXPECT_EQ(s.violations, std::vector<std::string>{});
  EXPECT_LE(static_cast<double>(s.messages),
            6.0 * n_log_n(static_cast<double>(n)));
}

TEST(Scale, DeepPathDoesNotOverflowAnything) {
  // 20k-node directed path: maximal discovery chain depth; exercises the
  // iterative (non-recursive) paths through the engine and simulator.
  const auto g = graph::directed_path(20'000);
  const auto s = core::run_discovery(g, core::variant::bounded, 0);
  ASSERT_TRUE(s.completed);
  EXPECT_EQ(s.violations, std::vector<std::string>{});
}

TEST(Soak, MixedOperationsLongSequence) {
  rng r(20260708);
  graph::digraph g = graph::random_weakly_connected(25, 30, 1);
  sim::random_delay_scheduler sched(5);
  core::config cfg;
  cfg.algo = core::variant::adhoc;
  core::discovery_run run(g, cfg, sched);
  testing::knowledge_audit audit(g);
  run.net().add_observer(&audit);
  run.wake_all();
  run.run();

  node_id next_id = 1000;
  for (int step = 0; step < 120; ++step) {
    const auto ids = run.ids();
    switch (r.below(4)) {
      case 0: {  // dynamic node join
        const node_id peer = ids[static_cast<std::size_t>(r.below(ids.size()))];
        run.add_node_dynamic(next_id, {peer});
        audit.add_edge(next_id, peer);
        g.add_edge(next_id, peer);
        ++next_id;
        break;
      }
      case 1: {  // dynamic link
        const node_id a = ids[static_cast<std::size_t>(r.below(ids.size()))];
        const node_id b = ids[static_cast<std::size_t>(r.below(ids.size()))];
        if (a != b) {
          run.add_link_dynamic(a, b);
          audit.add_edge(a, b);
          g.add_edge(a, b);
        }
        break;
      }
      case 2: {  // probe from a random node
        run.probe(ids[static_cast<std::size_t>(r.below(ids.size()))]);
        break;
      }
      case 3: {  // partial execution slice before the next operation
        run.net().run_to_quiescence(/*max_events=*/25);
        break;
      }
    }
    if (step % 10 == 9) {
      // Settle fully and check the complete spec.
      const auto res = run.run();
      ASSERT_TRUE(res.completed) << "step " << step;
      const auto rep = core::check_final_state(run, g);
      ASSERT_TRUE(rep.ok()) << "step " << step << ":\n" << rep.to_string();
    }
  }
  run.run();
  const auto rep = core::check_final_state(run, g);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(run.leaders().size(), 1u);
  EXPECT_EQ(audit.violations(), 0)
      << "knowledge-graph discipline violated: " << audit.first_violation();
}

TEST(LoadObserver, CountsMatchGlobalStats) {
  const auto g = graph::random_weakly_connected(30, 40, 3);
  sim::unit_delay_scheduler sched;
  core::config cfg;
  core::discovery_run run(g, cfg, sched);
  sim::load_observer load;
  run.net().add_observer(&load);
  run.wake_all();
  run.run();
  std::uint64_t sent = 0, received = 0;
  for (const node_id v : run.ids()) {
    sent += load.sent_by(v);
    received += load.received_by(v);
  }
  EXPECT_EQ(sent, run.statistics().total_messages());
  EXPECT_EQ(received, run.statistics().total_messages());
  EXPECT_NE(load.hottest(), invalid_node);
  EXPECT_GE(load.max_load(), load.load_of(run.leaders().front()) > 0
                                 ? load.load_of(run.ids().front())
                                 : 0);
}

TEST(UmbrellaHeader, CompilesAndExposesEverything) {
  // Touch one symbol from each sub-library through the umbrella header.
  EXPECT_EQ(uf::inverse_ackermann(64, 64), 3u);
  EXPECT_EQ(ceil_log2(9), 4u);
  EXPECT_EQ(core::to_string(core::variant::generic), "generic");
  EXPECT_TRUE(graph::directed_path(3).is_weakly_connected());
}

}  // namespace
}  // namespace asyncrd

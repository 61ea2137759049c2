// Exhaustive configuration-knob matrix: every combination of the engine's
// policy knobs (variant x path compression x phases x balanced queries)
// must preserve the safety and liveness spec — the knobs are performance
// levers, never correctness levers.
#include <gtest/gtest.h>

#include "core/checker.h"
#include "core/runner.h"
#include "graph/topology.h"

namespace asyncrd {
namespace {

using param = std::tuple<int /*variant*/, bool /*compression*/,
                         bool /*phases*/, bool /*balanced*/>;

class ConfigMatrix : public ::testing::TestWithParam<param> {
 protected:
  core::config make_config() const {
    const auto [vi, compress, phases, balanced] = GetParam();
    core::config cfg;
    cfg.algo = static_cast<core::variant>(vi);
    cfg.path_compression = compress;
    cfg.use_phases = phases;
    cfg.balanced_queries = balanced;
    return cfg;
  }

  void expect_ok(const graph::digraph& g, std::uint64_t seed) {
    std::unique_ptr<sim::scheduler> sched;
    if (seed == 0)
      sched = std::make_unique<sim::unit_delay_scheduler>();
    else
      sched = std::make_unique<sim::random_delay_scheduler>(seed);
    const core::config cfg = make_config();
    core::discovery_run run(g, cfg, *sched);
    core::structure_monitor structure(run);
    run.net().add_observer(&structure);
    run.wake_all();
    const auto r = run.run();
    ASSERT_TRUE(r.completed);
    const auto rep = core::check_final_state(run, g);
    EXPECT_TRUE(rep.ok()) << rep.to_string();
    EXPECT_TRUE(structure.ok()) << structure.violations().front();
  }
};

TEST_P(ConfigMatrix, RandomGraph) {
  expect_ok(graph::random_weakly_connected(30, 45, 5), 3);
}

TEST_P(ConfigMatrix, BinaryTree) {
  expect_ok(graph::directed_binary_tree(4), 0);
}

TEST_P(ConfigMatrix, InStarUnderRandomDelays) {
  expect_ok(graph::star_in(20), 9);
}

TEST_P(ConfigMatrix, MultiComponent) {
  expect_ok(graph::multi_component(2, 10, 6, 4), 7);
}

std::string config_name(const ::testing::TestParamInfo<param>& info) {
  static const char* names[] = {"generic", "bounded", "adhoc"};
  std::string s = names[std::get<0>(info.param)];
  s += std::get<1>(info.param) ? "_compress" : "_nocompress";
  s += std::get<2>(info.param) ? "_phases" : "_nophases";
  s += std::get<3>(info.param) ? "_balanced" : "_drain";
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllKnobs, ConfigMatrix,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()),
                         config_name);

}  // namespace
}  // namespace asyncrd

// google-benchmark microbenchmarks of the building blocks: full discovery
// executions per variant, the simulator's event loop, DSU operations, and
// inverse-Ackermann evaluation.  Wall-clock numbers (unlike the message
// counts in the other benches, these depend on the host machine).  The
// BM_*Discovery benchmarks time core::run_discovery, which ends every run
// with the §1.2 checker, so they time the run plus its check; they are not
// gated and have no committed baseline.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "bench_report.h"
#include "core/runner.h"
#include "graph/topology.h"
#include "unionfind/ackermann.h"
#include "unionfind/dsu.h"

namespace {

using namespace asyncrd;

void BM_GenericDiscovery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::random_weakly_connected(n, n, 42);
  for (auto _ : state) {
    auto s = core::run_discovery(g, core::variant::generic, 1);
    benchmark::DoNotOptimize(s.messages);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GenericDiscovery)->Arg(64)->Arg(256)->Arg(1024);

void BM_BoundedDiscovery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::random_weakly_connected(n, n, 42);
  for (auto _ : state) {
    auto s = core::run_discovery(g, core::variant::bounded, 1);
    benchmark::DoNotOptimize(s.messages);
  }
}
BENCHMARK(BM_BoundedDiscovery)->Arg(64)->Arg(256)->Arg(1024);

void BM_AdhocDiscovery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::random_weakly_connected(n, n, 42);
  for (auto _ : state) {
    auto s = core::run_discovery(g, core::variant::adhoc, 1);
    benchmark::DoNotOptimize(s.messages);
  }
}
BENCHMARK(BM_AdhocDiscovery)->Arg(64)->Arg(256)->Arg(1024);

void BM_TopologyGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto g = graph::random_weakly_connected(n, n, ++seed);
    benchmark::DoNotOptimize(g.edge_count());
  }
}
BENCHMARK(BM_TopologyGeneration)->Arg(256)->Arg(4096);

void BM_DsuUnionFind(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto sched = uf::random_schedule(n, n, 7);
  for (auto _ : state) {
    uf::dsu d(n);
    for (const auto& op : sched) {
      if (op.op == uf::uf_op::kind::unite)
        d.unite(op.a, op.b);
      else
        benchmark::DoNotOptimize(d.find(op.a));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sched.size()));
}
BENCHMARK(BM_DsuUnionFind)->Arg(1024)->Arg(65536);

void BM_InverseAckermann(benchmark::State& state) {
  std::uint64_t n = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(uf::inverse_ackermann(n, n));
    n = n < (std::uint64_t{1} << 40) ? n * 2 : 2;
  }
}
BENCHMARK(BM_InverseAckermann);

// Capturing reporter: prints the usual console table and records each
// per-iteration run (skipping aggregates/errors) for the JSON emission.
class capture_reporter : public benchmark::ConsoleReporter {
 public:
  struct result {
    std::string name;
    double real_ns_per_iter;
  };

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      results.push_back(
          {run.benchmark_name(), run.real_accumulated_time * 1e9 / iters});
    }
    ConsoleReporter::ReportRuns(report);
  }

  std::vector<result> results;
};

}  // namespace

int main(int argc, char** argv) {
  // Pull our flags out before benchmark::Initialize, which rejects
  // arguments it does not recognize.
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  asyncrd::bench::reporter rep("core_micro", argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-json") == 0) continue;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      ++i;
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  // An explicit --benchmark_format means the caller wants google-benchmark's
  // own serialization on stdout; hand over entirely (no BENCH json) rather
  // than overriding the format with our capturing console reporter.
  bool custom_format = false;
  for (const char* a : passthrough)
    if (std::strncmp(a, "--benchmark_format", 18) == 0) custom_format = true;

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data()))
    return 1;

  if (custom_format) {
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }

  capture_reporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Wall-clock microbenchmarks have no paper-predicted bound; emit 0 so
  // regression tooling compares measured-vs-measured across runs instead.
  for (const auto& r : reporter.results)
    rep.add(r.name, 0.0, r.real_ns_per_iter, 0.0);
  return rep.finish(!reporter.results.empty());
}

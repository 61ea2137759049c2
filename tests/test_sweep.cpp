// parallel_sweep: the one blessed way to fan independent simulations across
// threads.  The contract under test: every job index runs exactly once,
// worker indices are stable and in range, exceptions fail fast onto the
// caller, and slot-per-job writes compose into deterministic merged output.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/runner.h"
#include "graph/topology.h"
#include "sim/sweep.h"

namespace asyncrd {
namespace {

TEST(ParallelSweep, EveryJobRunsExactlyOnce) {
  constexpr std::size_t jobs = 200;
  std::vector<std::atomic<int>> runs(jobs);
  const auto sw = sim::parallel_sweep(jobs, [&](std::size_t job, std::size_t) {
    runs[job].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(sw.jobs, jobs);
  EXPECT_EQ(sw.jobs_completed, jobs);
  EXPECT_EQ(sw.jobs_skipped, 0u);
  EXPECT_GE(sw.workers, 1u);
  for (std::size_t i = 0; i < jobs; ++i)
    EXPECT_EQ(runs[i].load(), 1) << "job " << i;
}

TEST(ParallelSweep, WorkerIndicesAreInRange) {
  // Hardware concurrency, then a fixed 4 workers: the latter spawns helper
  // threads even on a 1-core host.
  for (const std::size_t max_workers : {std::size_t{0}, std::size_t{4}}) {
    std::atomic<std::size_t> max_worker{0};
    const auto sw = sim::parallel_sweep(
        64,
        [&](std::size_t, std::size_t worker) {
          std::size_t cur = max_worker.load(std::memory_order_relaxed);
          while (worker > cur &&
                 !max_worker.compare_exchange_weak(cur, worker)) {
          }
        },
        max_workers);
    if (max_workers != 0) {
      EXPECT_EQ(sw.workers, max_workers);
    }
    EXPECT_LT(max_worker.load(), sw.workers);
  }
}

TEST(ParallelSweep, ZeroJobsIsANoop) {
  bool ran = false;
  const auto sw =
      sim::parallel_sweep(0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(sw.jobs, 0u);
}

TEST(ParallelSweep, MaxWorkersOneRunsSerially) {
  // With one worker, jobs run in index order on the calling thread —
  // the degenerate case every sweep must degrade to on a 1-core host.
  std::vector<std::size_t> order;
  const auto sw = sim::parallel_sweep(
      10, [&](std::size_t job, std::size_t worker) {
        EXPECT_EQ(worker, 0u);
        order.push_back(job);
      },
      /*max_workers=*/1);
  EXPECT_EQ(sw.workers, 1u);
  std::vector<std::size_t> expect(10);
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(order, expect);
}

TEST(ParallelSweep, ExceptionPropagatesToCaller) {
  EXPECT_THROW(sim::parallel_sweep(32,
                                   [](std::size_t job, std::size_t) {
                                     if (job == 7)
                                       throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
}

TEST(ParallelSweep, FailureReportsSkippedJobsThroughOutParam) {
  // The fail-fast shutdown abandons claimed-but-unrun jobs; the sweep used
  // to report only `jobs`, silently overstating coverage.  The out param
  // is filled before the rethrow so callers see what actually ran.
  constexpr std::size_t jobs = 64;
  std::atomic<std::size_t> ran{0};
  sim::sweep_result sw;
  EXPECT_THROW(
      sim::parallel_sweep(
          jobs,
          [&](std::size_t job, std::size_t) {
            if (job == 5) throw std::runtime_error("boom");
            ran.fetch_add(1, std::memory_order_relaxed);
          },
          /*max_workers=*/4, &sw),
      std::runtime_error);
  EXPECT_EQ(sw.jobs, jobs);
  EXPECT_EQ(sw.jobs_completed, ran.load());
  EXPECT_EQ(sw.jobs_skipped, jobs - ran.load());
  // The throwing job never completes, so at least one job was skipped.
  EXPECT_GE(sw.jobs_skipped, 1u);
  EXPECT_LT(sw.jobs_completed, jobs);
}

TEST(ParallelSweep, SerialFailureAccountsTailExactly) {
  // One worker runs jobs in index order: 0..6 complete, 7 throws, 8..31
  // are never claimed — the accounting must say exactly that.
  sim::sweep_result sw;
  EXPECT_THROW(sim::parallel_sweep(
                   32,
                   [](std::size_t job, std::size_t) {
                     if (job == 7) throw std::runtime_error("boom");
                   },
                   /*max_workers=*/1, &sw),
               std::runtime_error);
  EXPECT_EQ(sw.jobs_completed, 7u);
  EXPECT_EQ(sw.jobs_skipped, 25u);
}

TEST(ParallelSweep, SlotPerJobMergeIsDeterministic) {
  // The usage pattern every bench/test wires up: independent discovery runs
  // write summaries into their own slots; the merged, index-ordered result
  // must equal a serial loop's bit for bit.
  const auto g = graph::random_weakly_connected(30, 60, 5);
  constexpr std::size_t seeds = 12;

  std::vector<core::run_summary> serial(seeds), fanned(seeds);
  for (std::size_t i = 0; i < seeds; ++i)
    serial[i] = core::run_discovery(g, core::variant::generic, 50 + i);
  sim::parallel_sweep(seeds, [&](std::size_t i, std::size_t) {
    fanned[i] = core::run_discovery(g, core::variant::generic, 50 + i);
  });

  for (std::size_t i = 0; i < seeds; ++i) {
    EXPECT_EQ(fanned[i].completed, serial[i].completed) << "seed slot " << i;
    EXPECT_EQ(fanned[i].messages, serial[i].messages) << "seed slot " << i;
    EXPECT_EQ(fanned[i].bits, serial[i].bits) << "seed slot " << i;
    EXPECT_EQ(fanned[i].completion_time, serial[i].completion_time)
        << "seed slot " << i;
  }
}

}  // namespace
}  // namespace asyncrd

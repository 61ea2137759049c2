#include "sim/sweep.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace asyncrd::sim {

sweep_result parallel_sweep(
    std::size_t job_count,
    const std::function<void(std::size_t job, std::size_t worker)>& fn,
    std::size_t max_workers, sweep_result* out) {
  sweep_result result;
  result.jobs = job_count;
  if (job_count == 0) {
    if (out != nullptr) *out = result;
    return result;
  }

  std::size_t workers = max_workers;
  if (workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 1 : hw;
  }
  if (workers > job_count) workers = job_count;
  result.workers = workers;

  const auto start = std::chrono::steady_clock::now();

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  const auto worker_loop = [&](std::size_t worker) {
    for (;;) {
      const std::size_t job = next.fetch_add(1, std::memory_order_relaxed);
      if (job >= job_count || failed.load(std::memory_order_relaxed)) return;
      try {
        fn(job, worker);
        completed.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (first_error == nullptr) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  // The caller is worker 0 — with one worker that is the whole sweep, no
  // thread spawn, and a debugger sees the job frames on the calling thread.
  // worker_loop never throws (it records into first_error itself), so every
  // helper that started reaches the join.
  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  try {
    for (std::size_t w = 1; w < workers; ++w)
      helpers.emplace_back(worker_loop, w);
  } catch (const std::system_error&) {
    // Out of threads: the helpers that started and the caller still claim
    // every job.
    result.workers = helpers.size() + 1;
  }
  worker_loop(0);
  for (std::thread& th : helpers) th.join();

  const auto elapsed = std::chrono::steady_clock::now() - start;
  result.wall_ms = std::chrono::duration<double, std::milli>(elapsed).count();
  result.jobs_completed = completed.load(std::memory_order_relaxed);
  result.jobs_skipped = job_count - result.jobs_completed;
  if (out != nullptr) *out = result;
  if (first_error != nullptr) std::rethrow_exception(first_error);
  return result;
}

}  // namespace asyncrd::sim

// Parallel seed/topology sweeps: fan independent simulations across
// std::thread workers.
//
// The simulator itself is single-threaded by design (determinism comes from
// a total order on events), but property sweeps — N seeds x M variants, each
// a fully independent execution — are embarrassingly parallel: every job
// builds its own scheduler, discovery_run, and network, so no simulator
// state is shared.  parallel_sweep() is the one blessed way to exploit that:
// it owns the worker threads, hands each job a stable worker index (for
// per-worker scratch state), and guarantees the job function is invoked
// exactly once per job index, so callers can write results into a pre-sized
// vector slot per job and read them back in deterministic order afterwards.
//
// Thread-safety contract for the job function:
//   * it may freely build and run networks, runs, schedulers (one per job);
//   * shared inputs (a common graph::digraph, config templates) must be
//     treated as read-only;
//   * writes must go to the job's own slot (distinct indices never race);
//   * sim::make_message allocates from the heap and needs no coordination;
//     its byte gauges are process-wide atomics, so a message may be freed
//     on another thread than the one that allocated it.
//
// Determinism: results are keyed by job index, not completion order, so a
// sweep's merged output is byte-identical whatever the interleaving of
// workers — the same property the event queue gives a single run.
#pragma once

#include <cstddef>
#include <functional>

namespace asyncrd::sim {

/// What a sweep did, for telemetry/bench reporting.
struct sweep_result {
  std::size_t jobs = 0;     ///< jobs requested
  std::size_t workers = 0;  ///< threads actually used
  /// Jobs whose function ran to completion.  Equal to `jobs` on success;
  /// after a failure, jobs the fail-fast shutdown abandoned (and the
  /// throwing job itself) are in jobs_skipped instead — `jobs` alone used
  /// to claim a full sweep even when most of it never ran.
  std::size_t jobs_completed = 0;
  std::size_t jobs_skipped = 0;
  double wall_ms = 0.0;     ///< wall time of the whole fan-out
  /// Aggregate events/sec across the sweep (sum of per-job event counts
  /// divided by wall time) when the caller reported events; 0 otherwise.
  double events_per_sec = 0.0;
};

/// Runs `fn(job, worker)` for every job in [0, job_count), fanned across up
/// to `max_workers` threads (0 = std::thread::hardware_concurrency, min 1).
/// The calling thread is worker 0; `workers - 1` more threads are spawned
/// and joined before returning.  Jobs are claimed from a shared atomic
/// counter, so long and short jobs balance automatically.
///
/// Exceptions: a throwing job terminates the sweep with the first exception
/// rethrown on the calling thread after all workers joined (remaining jobs
/// may or may not have run) — matching the fail-fast behaviour of a serial
/// loop closely enough for tests and benches.  Because the result object
/// cannot be returned on the exception path, pass `out` to still receive
/// the completion accounting (jobs_completed / jobs_skipped): it is filled
/// right before the rethrow.
sweep_result parallel_sweep(
    std::size_t job_count,
    const std::function<void(std::size_t job, std::size_t worker)>& fn,
    std::size_t max_workers = 0, sweep_result* out = nullptr);

}  // namespace asyncrd::sim

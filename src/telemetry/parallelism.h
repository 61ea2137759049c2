// Trace-derived parallelism profile: how much concurrency a run contains.
//
// Would sharding a single run across worker threads pay?  The causal trace
// already encodes the answer: two activations at the same virtual time are causally independent (every
// channel delay is >= 1 time unit, so neither can have caused the other),
// which makes the number of activations per virtual-time bucket — the
// *width* — exactly the number of events a parallel scheduler could run
// concurrently at that instant.  Aggregating widths over the run gives:
//
//   * the width histogram (how often the run is actually wide),
//   * total work / critical path — the available-speedup ceiling by
//     Brent's bound (no schedule beats work/span),
//   * per-link lookahead: min(at - sent_at) per ordered link, the channel
//     delay lower bound a conservative synchronization window can exploit
//     (the classic Chandy–Misra null-message bound).
//
// Computed offline from tracer output (or a reloaded Perfetto trace) by
// trace_analyze --parallelism; emitted as BENCH_parallelism.json.  Those
// profiles are why the simulator has one serial event loop: most ticks
// hold a single activation and every link's lookahead is 1, so a
// window-per-tick parallel engine pays a barrier per event and measured
// slower than the serial loop (EXPERIMENTS.md, "Single-run parallelism").
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/histogram.h"
#include "telemetry/tracer.h"

namespace asyncrd::telemetry {

struct parallelism_profile {
  // Work and span.
  std::uint64_t activations = 0;       ///< total traced work (events)
  std::uint64_t critical_path_len = 0; ///< max Lamport timestamp (span)
  sim::sim_time makespan = 0;          ///< latest activation's sim time
  /// activations / critical_path_len: the available-speedup ceiling.
  double work_cp_ratio = 0.0;

  // Width over virtual time.
  sim::sim_time bucket = 1;        ///< bucket size used (sim-time units)
  std::uint64_t buckets_occupied = 0;  ///< buckets with >= 1 activation
  histogram width;                 ///< one sample per occupied bucket
  std::uint64_t max_width = 0;
  /// activations / buckets_occupied: mean concurrency while active.
  double mean_width = 0.0;

  // Per-link lookahead (deliveries only; a link is an ordered (from, to)
  // pair).  Aggregated over each link's *minimum* observed delay.
  std::uint64_t links = 0;
  std::uint64_t lookahead_min = 0;
  std::uint64_t lookahead_max = 0;
  double lookahead_mean = 0.0;
};

/// Computes the profile from a traced run.  `bucket` groups virtual time
/// into windows of that many sim-time units (>= 1; 1 means exact times).
/// Empty input yields an all-zero profile.
parallelism_profile compute_parallelism(const std::vector<trace_event>& events,
                                        sim::sim_time bucket = 1);

}  // namespace asyncrd::telemetry

// Time-series progress snapshots: bounded-memory virtual-time series of the
// simulator's health gauges.
//
// A series_frame is a fixed-capacity table — one shared time column plus
// named uint64 value columns — that downsamples itself when full: the frame
// keeps every even-indexed retained sample (so the first sample always
// survives), doubles its stride, and goes on, giving bounded memory however
// long the run.  The most recent sample is additionally kept in a pending
// slot, so the serialized series always ends at the last thing that
// happened.  Columns hold *cumulative* counters where applicable — a
// cumulative value at a retained sample is exact whatever got dropped
// between samples, so downsampling never corrupts it; readers derive rates
// by differencing neighbours.
//
// A series_sampler is the sim::health_probe that fills a frame from a live
// discovery_run every `interval` of virtual time: components remaining
// (merge accounting), in-flight messages, event-queue depth, app
// deliveries, per-type cumulative send counts (sim::stats), the ARQ
// retransmit backlog / outstanding ranges when a reliable_link_layer is
// armed, and the pointer-chain length hi-water mark (a bounded rotating
// walk of next() pointers).  telemetry::run_recorder arms one; the result
// serializes as the run report's "series" object and exports as Perfetto
// counter tracks (telemetry/perfetto.h).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/runner.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace asyncrd::telemetry {

using sim_time = sim::sim_time;

class series_frame {
 public:
  /// `capacity` is the maximum retained samples per column; rounded up to
  /// an even number >= 4 so halving always preserves the first sample.
  explicit series_frame(std::size_t capacity);

  /// Registers a column (idempotent per name) and returns its index.  A
  /// column added after sampling started is backfilled with zeros — message
  /// types appear lazily, mid-run.
  std::uint32_t add_column(std::string_view name);

  std::size_t columns() const noexcept { return cols_.size(); }
  const std::string& column_name(std::uint32_t i) const {
    return cols_[i].name;
  }

  /// Records one sample row: `values[i]` belongs to column i (n may be
  /// smaller than columns(); missing tail values read as 0).  `t` must be
  /// strictly greater than the previous sample's time.
  void record(sim_time t, const std::uint64_t* values, std::size_t n);

  /// Retained samples (excluding the pending last slot).
  std::size_t size() const noexcept { return times_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Current downsampling stride: every stride-th sample is retained.
  std::uint64_t stride() const noexcept { return stride_; }
  /// Total samples ever recorded (before downsampling).
  std::uint64_t recorded() const noexcept { return tick_; }

  /// Sample times / column values, with the pending last sample appended
  /// when it was not itself retained — what gets serialized.
  std::vector<sim_time> times() const;
  std::vector<std::uint64_t> column(std::uint32_t i) const;

 private:
  struct col {
    std::string name;
    std::vector<std::uint64_t> values;
  };

  /// Keeps even-indexed samples, doubling the stride.
  void halve();

  std::size_t capacity_;
  std::uint64_t stride_ = 1;
  std::uint64_t tick_ = 0;  ///< samples recorded (retained or not)
  std::vector<sim_time> times_;
  std::vector<col> cols_;
  /// Most recent sample, kept even when the stride skipped it.
  bool have_pending_ = false;
  sim_time pending_t_ = 0;
  std::vector<std::uint64_t> pending_;
};

class series_sampler final : public sim::health_probe {
 public:
  /// Samples every `interval` of virtual time (0 reads as 1).
  series_sampler(core::discovery_run& run, sim_time interval);

  sim_time on_probe(sim::network& net) override;

  const series_frame& frame() const noexcept { return frame_; }
  sim_time interval() const noexcept { return interval_; }
  std::uint64_t chain_hi_water() const noexcept { return chain_hi_water_; }
  std::uint64_t samples() const noexcept { return frame_.recorded(); }

 private:
  core::discovery_run* run_;
  sim_time interval_;
  series_frame frame_;
  // Fixed columns registered up front; per-type send columns appear lazily.
  std::uint32_t col_components_;
  std::uint32_t col_in_flight_;
  std::uint32_t col_queue_depth_;
  std::uint32_t col_app_deliveries_;
  std::uint32_t col_merges_;
  std::uint32_t col_chain_hi_;
  std::uint32_t col_arq_outstanding_ = 0;
  std::uint32_t col_arq_backlogged_ = 0;
  std::uint32_t col_arq_retransmits_ = 0;
  bool have_arq_cols_ = false;
  // Cost-profiler columns (cumulative attributed nanoseconds per phase,
  // plus "prof.handlers" for the dispatch-tag total); appear lazily when
  // the network has a profiler armed, like the ARQ columns.
  std::uint32_t col_prof_[sim::cost_profiler::phase_count + 1] = {};
  bool have_prof_cols_ = false;
  std::vector<std::uint64_t> row_;
  std::size_t chain_cursor_ = 0;
  std::uint64_t chain_hi_water_ = 0;
  std::vector<node_id> ids_;  ///< cached node ids for the chain walk
};

}  // namespace asyncrd::telemetry

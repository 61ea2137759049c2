// Run reports: one machine-readable snapshot per discovery execution.
//
// A run_report collects everything the paper's quantitative claims are
// stated over — per-type message and bit counts (Thm 5-7, Lem 5.5-5.10),
// the per-node load distribution (hotspot analysis), state-transition
// multiplicities (Fig 1), events processed, virtual completion time, and
// host wall-clock / event-throughput — and serializes it as JSON so two
// runs can be diffed (see docs/OBSERVABILITY.md for the schema and how to
// compare files).
//
// Usage (the run_recorder arms every observer in one line):
//
//   core::discovery_run run(g, cfg, sched);
//   telemetry::run_recorder rec(run);
//   run.wake_all();
//   const auto result = run.run();
//   telemetry::run_report rep = rec.report(result);
//   rep.label = "my_experiment";
//   std::ofstream(path) << rep.to_json();
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "core/runner.h"
#include "core/trace.h"
#include "sim/load_observer.h"
#include "sim/profiler.h"
#include "sim/stats.h"
#include "telemetry/health.h"
#include "telemetry/histogram.h"
#include "telemetry/metrics.h"
#include "telemetry/timeseries.h"

namespace asyncrd::telemetry {

class json_writer;

struct run_report {
  /// Schema version of the JSON serialization, written as the FIRST key of
  /// the document so validators can reject unknown schemas before diffing
  /// anything else.  Bump when keys change meaning or shape:
  ///   1 — PRs 1-5 (implicit; no version field)
  ///   2 — adds report_version, "series", "watchdog"
  ///   3 — this layout: adds "profile" (hot-path cost attribution)
  static constexpr std::uint64_t current_version = 3;
  std::uint64_t report_version = current_version;

  // --- caller-supplied context -----------------------------------------
  std::string label;    ///< what was run (bench name, experiment id)
  std::string variant;  ///< algorithm variant name, if applicable
  std::uint64_t seed = 0;
  std::uint64_t edges = 0;  ///< |E0| (the run does not retain the graph)

  // --- measured --------------------------------------------------------
  std::uint64_t nodes = 0;
  bool completed = false;
  std::uint64_t leaders = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t completion_time = 0;  ///< virtual time at quiescence
  double wall_ms = 0.0;               ///< host time in the event loop
  double events_per_sec = 0.0;        ///< event throughput (host clock)
  std::uint64_t total_messages = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t id_bits = 0;
  std::map<std::string, sim::type_stats, std::less<>> messages_by_type;

  /// Wire frame accounting (sim/wire.h) of a service-mode shard
  /// (net::node_host::report).  Serialized only when `enabled`: simulation
  /// runs encode nothing, so their reports carry no "wire" block.  Counts
  /// are the frames this process put on its socket, one per remote send:
  /// ARQ retransmissions do not add frames.
  struct wire_report {
    bool enabled = false;
    std::uint64_t bytes_sent = 0;
    std::uint64_t frames = 0;
    /// Malformed or misrouted datagrams dropped at the receive path.  Kept
    /// out of `frames`/`bytes_sent` — those sum the by_type table exactly
    /// and count only frames sent.
    std::uint64_t decode_errors = 0;
    struct type_bytes {
      std::uint64_t count = 0;
      std::uint64_t bytes = 0;
    };
    std::map<std::string, type_bytes, std::less<>> by_type;
  };
  wire_report wire;

  /// Per-node load distribution (sent + received per node), as a
  /// histogram — O(log max) memory however large the network.
  histogram load;
  std::uint64_t max_load = 0;
  node_id hottest = invalid_node;

  /// Chaos transport: wire-level fault counters plus the reliable-link
  /// protocol's recovery counters.  Always serialized ("enabled": false
  /// with all-zero counters on a clean run) so report diffs line up.
  struct chaos_report {
    bool enabled = false;
    // fault_plan injections (sim::network::faults()).
    std::uint64_t transmissions = 0;
    std::uint64_t drops = 0;
    std::uint64_t outage_drops = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t reorder_delay = 0;
    // reliable-link recovery (sim::reliable_link_layer::stats()).
    std::uint64_t data_sent = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t dup_suppressed = 0;
    std::uint64_t timer_fires = 0;
    std::uint64_t rto_backoffs = 0;
    std::uint64_t max_rto = 0;
  };
  chaos_report chaos;

  /// Time-series progress snapshots (telemetry/timeseries.h).  Always
  /// serialized — interval == 0 with empty columns on a run without a
  /// sampler — so report diffs line up, like chaos.
  struct series_report {
    sim::sim_time interval = 0;  ///< 0 = sampler was not armed
    std::uint64_t stride = 1;
    std::uint64_t recorded = 0;
    std::vector<std::uint64_t> t;  ///< sample times, strictly increasing
    /// Column name -> per-sample values, one entry per t (insertion order).
    std::vector<std::pair<std::string, std::vector<std::uint64_t>>> cols;
  };
  series_report series;

  /// Stall-watchdog verdict (telemetry/health.h).  Always serialized;
  /// armed == false with no trips on a run without a watchdog.
  struct watchdog_report {
    bool armed = false;
    sim::sim_time window = 0;
    sim::sim_time probe_interval = 0;
    bool abort_on_trip = false;
    std::vector<watchdog_trip> trips;
  };
  watchdog_report watchdog;

  /// Hot-path cost attribution (sim/profiler.h).  Always serialized;
  /// armed == false with empty buckets on a run without the profiler.
  /// Counts are exact; ticks come from the 1-in-sample_every sampled
  /// events, and `ns` fields extrapolate to whole-run estimates
  /// (ticks / ticks_per_ns * events / sampled_events) at report time.
  struct profile_report {
    bool armed = false;
    double ticks_per_ns = 0.0;
    struct entry {
      std::string name;
      std::uint64_t count = 0;
      std::uint64_t ticks = 0;
      double ns = 0.0;
    };
    std::vector<entry> phases;  ///< fixed phases, enum order
    std::vector<entry> tags;    ///< dispatch tags with count > 0
    std::uint64_t loop_ticks = 0;  ///< whole event-loop span
    double loop_ns = 0.0;
    std::uint64_t events = 0;          ///< events seen by the gate
    std::uint64_t sampled_events = 0;  ///< events that read ticks
    std::uint64_t sample_every = 0;    ///< the gate's sampling period
    /// attributed_ticks / sampled_span_ticks: how much of the measured
    /// event spans the instrumented phases explain (the rest is queue
    /// bookkeeping and dispatch glue between spans).  Unbiased despite
    /// sampling — numerator and denominator cover the same events.
    double attributed_fraction = 0.0;
  };
  profile_report profile;

  /// State-transition multiplicities, "explore -> wait" style keys.
  std::map<std::string, std::uint64_t> transitions;

  /// Free-form scalar metrics (checker verdicts, bound ratios, ...).
  std::map<std::string, double> extra;

  void write_json(json_writer& w) const;
  std::string to_json() const;
};

/// Fills the measured fields of a run_report from a finished execution.
/// `load` and `transitions` are optional — pass the observers that were
/// armed during the run (run_recorder does this for you).
run_report collect_run_report(const core::discovery_run& run,
                              const sim::run_result& result,
                              const sim::load_observer* load = nullptr,
                              const core::transition_recorder* transitions =
                                  nullptr);

/// Peak resident set size of this process in bytes (VmHWM in
/// /proc/self/status), or 0 where that file is not available.
std::uint64_t peak_rss_bytes();

/// Runtime-health arming knobs for run_recorder.  Defaults keep everything
/// off, preserving the recorder's zero-surprise cost profile; benches and
/// the CLI opt in per flag.
struct recorder_options {
  /// Virtual-time sampling interval for the progress series; 0 = no
  /// sampler.
  sim::sim_time series_interval = 0;
  /// Retained samples per series column before resolution halves.
  std::size_t series_capacity = 512;
  /// Stall watchdog; window == 0 leaves it disarmed.
  watchdog_config watchdog;
  /// Flight-recorder ring size (last K dispatched events); 0 = none.
  std::size_t flight_capacity = 0;
  /// Arm the hot-path cost profiler (sim/profiler.h) for the run.
  bool profile = false;
};

/// Arms a load observer, a transition recorder, and a metrics registry on a
/// discovery_run in one shot (as network observers) — plus, when the
/// options ask for them, the series sampler, stall watchdog, flight
/// recorder and profiler — and builds the report afterwards.  The report's
/// `extra` block carries the run's memory at report time, one
/// `mem.<part>_bytes` per discovery_run::memory_parts entry, and the
/// process's `mem.peak_rss_bytes`.  Detaches everything on destruction.
class run_recorder {
 public:
  explicit run_recorder(core::discovery_run& run, recorder_options opts = {});
  ~run_recorder();

  run_recorder(const run_recorder&) = delete;
  run_recorder& operator=(const run_recorder&) = delete;

  run_report report(const sim::run_result& result) const;

  const sim::load_observer& load() const noexcept { return load_; }
  const core::transition_recorder& transitions() const noexcept {
    return transitions_;
  }
  registry& metrics() noexcept { return metrics_; }

  /// Armed health instruments; nullptr when the options left them off.
  const series_sampler* sampler() const noexcept { return sampler_.get(); }
  const stall_watchdog* watchdog() const noexcept { return watchdog_.get(); }
  const sim::flight_recorder* flight() const noexcept { return flight_.get(); }
  const sim::cost_profiler* profiler() const noexcept {
    return profiler_.get();
  }

 private:
  /// Feeds the metrics registry from network events.
  class metrics_observer final : public sim::observer {
   public:
    explicit metrics_observer(registry& reg);
    void on_event(const sim::event_record& r) override;

   private:
    counter* sends_;
    counter* delivers_;
    counter* wakes_;
    histogram* payload_ids_;
  };

  core::discovery_run* run_;
  sim::load_observer load_;
  core::transition_recorder transitions_;
  registry metrics_;
  metrics_observer metrics_obs_;
  std::unique_ptr<series_sampler> sampler_;
  std::unique_ptr<stall_watchdog> watchdog_;
  std::unique_ptr<sim::flight_recorder> flight_;
  std::unique_ptr<sim::cost_profiler> profiler_;
};

}  // namespace asyncrd::telemetry

// Metrics registry: named counters, gauges, and histograms any component
// can record into, with one JSON snapshot for run reports.
//
// Instruments are owned by the registry and referenced by stable pointers
// (std::map nodes never move), so the lookup cost is paid once:
//
//   telemetry::registry reg;
//   auto& sends = reg.get_counter("net.sends");
//   ... hot loop: sends.inc(); ...
//   reg.write_json(w);
//
// Not thread-safe by design — the simulator is single-threaded; arm one
// registry per run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "sim/network.h"
#include "sim/reliable_link.h"
#include "sim/sweep.h"
#include "telemetry/histogram.h"

namespace asyncrd::telemetry {

class json_writer;

/// Monotonically increasing count.
class counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written point-in-time value.
class gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double delta) noexcept { value_ += delta; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

class registry {
 public:
  /// Finds or creates the named instrument.  The reference stays valid for
  /// the registry's lifetime.
  counter& get_counter(std::string_view name);
  gauge& get_gauge(std::string_view name);
  histogram& get_histogram(std::string_view name);

  const std::map<std::string, counter, std::less<>>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, gauge, std::less<>>& gauges() const noexcept {
    return gauges_;
  }
  const std::map<std::string, histogram, std::less<>>& histograms() const noexcept {
    return histograms_;
  }

  /// Zeroes every registered instrument (names are kept).
  void reset();

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  void write_json(json_writer& w) const;

 private:
  std::map<std::string, counter, std::less<>> counters_;
  std::map<std::string, gauge, std::less<>> gauges_;
  std::map<std::string, histogram, std::less<>> histograms_;
};

/// Records a finished parallel sweep under `prefix`: "<prefix>.jobs",
/// "<prefix>.jobs_completed", "<prefix>.jobs_skipped" (counters, accumulate
/// across sweeps), "<prefix>.workers", "<prefix>.wall_ms",
/// "<prefix>.events_per_sec" (gauges, last sweep wins).  The registry is
/// not thread-safe; call after the sweep returned, from one thread.
void record_sweep(registry& reg, std::string_view prefix,
                  const sim::sweep_result& r);

/// Records chaos-transport accounting under `prefix`: wire-level fault
/// counters ("<prefix>.transmissions", ".drops", ".outage_drops",
/// ".duplicates", ".reorder_delay") and, when `rl` is non-null, the
/// reliable-link protocol counters (".data_sent", ".retransmits",
/// ".acks_sent", ".dup_suppressed", ".timer_fires", ".rto_backoffs",
/// ".max_rto" gauge).  All counters accumulate across runs sharing the
/// registry.
void record_chaos(registry& reg, std::string_view prefix,
                  const sim::fault_stats& faults,
                  const sim::reliable_link_stats* rl = nullptr);

}  // namespace asyncrd::telemetry

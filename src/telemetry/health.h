// Stall watchdog and flight-recorder postmortems — the "is this run still
// alive?" half of the runtime health layer (series in timeseries.h).
//
// The watchdog is a sim::health_probe that trips when, for a configurable
// window of virtual time, no component merged AND no application-level
// message was delivered while work remained pending (messages in flight or
// un-acked ARQ envelopes).  That predicate is exactly the
// phase-locked-retransmit livelock's signature: the wire can be empty (an
// outage window ate every retry) while the reliable link still owes
// deliveries, so the pending-work test must include the ARQ backlog, not
// just in-flight messages.  Trips are recorded as structured events for the
// run report's "watchdog" object; abort_on_trip additionally stops the
// event loop (run_result.stopped), which lets CLIs exit with a distinct
// status instead of burning the event cap.
//
// write_flight_dump serializes a sim::flight_recorder ring — the last K
// dispatched events with their cause ids — as a standalone JSON document
// for tools/trace_analyze --flight: the postmortem view when a watchdog
// trip or checker violation ends a run that was not paying full-trace cost.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/runner.h"
#include "sim/flight_recorder.h"
#include "sim/network.h"

namespace asyncrd::telemetry {

class json_writer;

struct watchdog_config {
  /// Virtual-time window with no progress (while work is pending) that
  /// counts as a stall.  0 leaves the watchdog disarmed.
  sim::sim_time window = 0;
  /// How often the probe checks; 0 derives window / 4 (>= 1).
  sim::sim_time probe_interval = 0;
  /// Stop the event loop on the first trip (run_result.stopped).
  bool abort_on_trip = false;
  /// Cap on recorded trips (a non-aborting watchdog on a truly stuck run
  /// would otherwise accumulate one trip per window forever).
  std::size_t max_trips = 16;
};

/// One watchdog trip: the stall window [last_progress_at, at] and the
/// pending-work evidence at trip time.
struct watchdog_trip {
  sim::sim_time at = 0;
  sim::sim_time last_progress_at = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t arq_outstanding = 0;
  std::uint64_t app_deliveries = 0;
  std::uint64_t merges = 0;
};

class stall_watchdog final : public sim::health_probe {
 public:
  stall_watchdog(core::discovery_run& run, watchdog_config cfg);

  sim::sim_time on_probe(sim::network& net) override;

  bool tripped() const noexcept { return !trips_.empty(); }
  const std::vector<watchdog_trip>& trips() const noexcept { return trips_; }
  const watchdog_config& config() const noexcept { return cfg_; }

 private:
  core::discovery_run* run_;
  watchdog_config cfg_;
  std::uint64_t last_signal_ = 0;  ///< app_deliveries + merges last seen
  sim::sim_time last_progress_at_ = 0;
  std::vector<watchdog_trip> trips_;
};

/// Human-readable name for a dispatch tag (core vocabulary + reliable-link
/// envelopes): a core tag gets its message's type_name(), so flight dumps
/// and profiles use the names sim::stats and the causal trace use;
/// "tag:<N>" for anything unknown, "wake"/"timer" handled by the callers
/// via the entry kind.
std::string dispatch_tag_name(std::uint8_t tag);

/// Serializes a flight-recorder ring as a standalone JSON document:
/// {"tool": "asyncrd", "kind": "flight", "capacity": K, "recorded": N,
///  "dropped": D, "events": [{"at", "kind", "id", "cause", "a", "b",
///  "tag", "type"}, ...]} — events oldest first, cause ids in the same
/// space as the causal tracer so edges link entries still in the ring.
void write_flight_dump(json_writer& w, const sim::flight_recorder& fr);
std::string flight_dump_json(const sim::flight_recorder& fr);
void write_flight_dump(std::ostream& os, const sim::flight_recorder& fr);

}  // namespace asyncrd::telemetry

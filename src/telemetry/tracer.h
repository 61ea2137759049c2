// Causal tracing: per-event message genealogy for a simulated run.
//
// The network assigns every *activation* (one wake callback or one delivery
// callback) a unique event id and publishes it in the activation's
// sim::event_record, with the two causal edges that produced it:
//
//   * cause   — genealogy: the activation in which the delivered message was
//               sent (Lamport's happened-before along the message);
//   * release — scheduling: the activation whose quiescence made the
//               adversary release a held message or inject a wake.
//
// The tracer observer copies those records into a flat vector of
// trace_events and assigns each one a Lamport timestamp (causal depth): 1
// for roots, max(parent lamports) + 1 otherwise.  Because every cause completes before
// its effects begin, parents always precede children in the vector and the
// timestamps are computed online in O(1) per event.
//
// Invariant (asserted in tests): when every delivery delay is exactly one
// time unit — the unit-delay scheduler, Theorem 1's staged-release
// adversary, Lemma 3.1's sequential wake-up — an activation's Lamport
// timestamp equals its sim_time, so the maximum Lamport timestamp equals
// the network's final sim_time: the critical path *is* the run's time
// complexity.  See telemetry/critical_path.h for the extraction.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "sim/network.h"

namespace asyncrd::telemetry {

/// "No such activation" (same sentinel the network uses).
inline constexpr std::uint64_t trace_none = sim::event_record::none;

/// One traced activation with its causal parents and metadata.
struct trace_event {
  enum class kind : std::uint8_t { wake, deliver };
  std::uint64_t id = 0;
  std::uint64_t cause = trace_none;    ///< genealogy parent
  std::uint64_t release = trace_none;  ///< scheduling parent
  /// The binding parent — whichever of {cause, release} has the larger
  /// Lamport timestamp (the edge that actually delayed this event);
  /// trace_none for roots.
  std::uint64_t parent = trace_none;
  kind what = kind::wake;
  node_id from = invalid_node;  ///< deliver: the sender
  node_id to = invalid_node;    ///< deliver: receiver; wake: the woken node
  sim::sim_time at = 0;         ///< sim time of the activation
  sim::sim_time sent_at = 0;    ///< deliver: sim time the message left
  std::uint64_t lamport = 1;    ///< causal depth: max(parent lamports) + 1
  std::uint64_t bits = 0;       ///< deliver: message size in bits
  std::uint32_t sends = 0;      ///< messages sent from inside this activation
  std::string type;             ///< deliver: message type name
};

/// Observer that records the causal genealogy of a run.  Arm it with
/// net.add_observer(&tr) *before* the first wake; it must stay attached
/// (and alive) for the part of the execution you want traced.
class tracer final : public sim::observer {
 public:
  explicit tracer(sim::network& net) : net_(&net) {}

  void on_event(const sim::event_record& r) override;

  /// All traced activations, in dispatch order (parents precede children).
  const std::vector<trace_event>& events() const noexcept { return events_; }

  /// Lookup by activation id; nullptr if that activation was not traced.
  const trace_event* find(std::uint64_t id) const;

  /// The deepest causal chain seen so far (== critical-path hop count).
  std::uint64_t max_lamport() const noexcept { return max_lamport_; }

  /// Sends observed (delivered or still in flight).
  std::uint64_t sends_observed() const noexcept { return sends_observed_; }

  void clear();

 private:
  trace_event& push(trace_event ev);
  std::uint64_t lamport_of(std::uint64_t id) const;

  sim::network* net_;
  std::vector<trace_event> events_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::uint64_t max_lamport_ = 0;
  std::uint64_t sends_observed_ = 0;
};

}  // namespace asyncrd::telemetry

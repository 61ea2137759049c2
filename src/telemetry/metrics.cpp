#include "telemetry/metrics.h"

#include "telemetry/json.h"

namespace asyncrd::telemetry {

namespace {

/// Heterogeneous-lookup emplace: avoids a std::string allocation when the
/// instrument already exists.
template <typename Map>
typename Map::mapped_type& find_or_create(Map& m, std::string_view name) {
  const auto it = m.find(name);
  if (it != m.end()) return it->second;
  return m.emplace(std::string(name), typename Map::mapped_type{})
      .first->second;
}

}  // namespace

counter& registry::get_counter(std::string_view name) {
  return find_or_create(counters_, name);
}

gauge& registry::get_gauge(std::string_view name) {
  return find_or_create(gauges_, name);
}

histogram& registry::get_histogram(std::string_view name) {
  return find_or_create(histograms_, name);
}

void registry::reset() {
  for (auto& [name, c] : counters_) c = counter{};
  for (auto& [name, g] : gauges_) g = gauge{};
  for (auto& [name, h] : histograms_) h.reset();
}

void record_sweep(registry& reg, std::string_view prefix,
                  const sim::sweep_result& r) {
  const std::string p(prefix);
  reg.get_counter(p + ".jobs").inc(r.jobs);
  reg.get_counter(p + ".jobs_completed").inc(r.jobs_completed);
  reg.get_counter(p + ".jobs_skipped").inc(r.jobs_skipped);
  reg.get_gauge(p + ".workers").set(static_cast<double>(r.workers));
  reg.get_gauge(p + ".wall_ms").set(r.wall_ms);
  reg.get_gauge(p + ".events_per_sec").set(r.events_per_sec);
}

void record_chaos(registry& reg, std::string_view prefix,
                  const sim::fault_stats& faults,
                  const sim::reliable_link_stats* rl) {
  const std::string p(prefix);
  reg.get_counter(p + ".transmissions").inc(faults.transmissions);
  reg.get_counter(p + ".drops").inc(faults.drops);
  reg.get_counter(p + ".outage_drops").inc(faults.outage_drops);
  reg.get_counter(p + ".duplicates").inc(faults.duplicates);
  reg.get_counter(p + ".reorder_delay").inc(faults.reorder_delay);
  if (rl == nullptr) return;
  reg.get_counter(p + ".data_sent").inc(rl->data_sent);
  reg.get_counter(p + ".retransmits").inc(rl->retransmits);
  reg.get_counter(p + ".acks_sent").inc(rl->acks_sent);
  reg.get_counter(p + ".dup_suppressed").inc(rl->dup_suppressed);
  reg.get_counter(p + ".timer_fires").inc(rl->timer_fires);
  reg.get_counter(p + ".rto_backoffs").inc(rl->rto_backoffs);
  reg.get_gauge(p + ".max_rto").set(static_cast<double>(rl->max_rto));
}

void registry::write_json(json_writer& w) const {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.kv(name, c.value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) w.kv(name, g.value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    h.write_json(w);
  }
  w.end_object();
  w.end_object();
}

}  // namespace asyncrd::telemetry

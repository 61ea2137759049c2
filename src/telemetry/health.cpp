#include "telemetry/health.h"

#include <ostream>

#include "core/messages.h"
#include "sim/reliable_link.h"
#include "telemetry/json.h"

namespace asyncrd::telemetry {

stall_watchdog::stall_watchdog(core::discovery_run& run, watchdog_config cfg)
    : run_(&run), cfg_(cfg) {
  if (cfg_.window == 0) cfg_.window = 1;
  if (cfg_.probe_interval == 0)
    cfg_.probe_interval = cfg_.window / 4 == 0 ? 1 : cfg_.window / 4;
}

sim::sim_time stall_watchdog::on_probe(sim::network& net) {
  // Progress = any app-level delivery or any component merge since the last
  // probe.  Transport-level churn (retransmits, acks) deliberately does not
  // count: a phase-locked retransmit storm is busy without progressing.
  const std::uint64_t signal = net.app_deliveries() + run_->merges();
  if (signal != last_signal_) {
    last_signal_ = signal;
    last_progress_at_ = net.now();
  }
  // Pending work must include the ARQ backlog: an outage window can eat
  // every retry, leaving the wire empty while envelopes are still owed
  // (the PR 5 livelock had in_flight == 0 for most of each period).
  const sim::reliable_link_layer* rl = run_->reliable_links();
  const std::uint64_t outstanding = rl != nullptr ? rl->outstanding() : 0;
  const bool pending = net.in_flight() > 0 || outstanding > 0;
  if (pending && net.now() - last_progress_at_ >= cfg_.window) {
    if (trips_.size() < cfg_.max_trips)
      trips_.push_back({net.now(), last_progress_at_, net.in_flight(),
                        outstanding, net.app_deliveries(), run_->merges()});
    // Re-arm: a still-stuck run trips again one window from now, not on
    // every subsequent probe.
    last_progress_at_ = net.now();
    if (cfg_.abort_on_trip) net.request_stop();
  }
  return net.now() + cfg_.probe_interval;
}

std::string dispatch_tag_name(std::uint8_t tag) {
  using core::msg_kind;
  if (tag == sim::rl_data_tag) return "rl.data";
  if (tag == sim::rl_ack_tag) return "rl.ack";
  switch (static_cast<msg_kind>(tag)) {
    case msg_kind::query: return "query";
    case msg_kind::query_reply: return "query_reply";
    case msg_kind::search: return "search";
    case msg_kind::release: return "release";
    case msg_kind::merge_accept: return "merge_accept";
    case msg_kind::merge_fail: return "merge_fail";
    case msg_kind::info: return "info";
    case msg_kind::conquer: return "conquer";
    case msg_kind::member_reply: return "more_done";
    case msg_kind::probe: return "probe";
    case msg_kind::probe_reply: return "probe_reply";
    case msg_kind::report: return "report";
    case msg_kind::report_ack: return "report_ack";
    default: break;
  }
  return "tag:" + std::to_string(tag);
}

void write_flight_dump(json_writer& w, const sim::flight_recorder& fr) {
  w.begin_object();
  w.kv("tool", "asyncrd");
  w.kv("kind", "flight");
  w.kv("capacity", static_cast<std::uint64_t>(fr.capacity()));
  w.kv("recorded", static_cast<std::uint64_t>(fr.size()));
  w.kv("dropped", fr.dropped());
  w.key("events").begin_array();
  fr.visit([&w](const sim::flight_entry& e) {
    w.begin_object();
    w.kv("at", e.at);
    switch (e.what) {
      case sim::flight_entry::kind::wake:
        w.kv("kind", "wake");
        w.kv("node", static_cast<std::uint64_t>(e.a));
        break;
      case sim::flight_entry::kind::deliver:
        w.kv("kind", "deliver");
        w.kv("from", static_cast<std::uint64_t>(e.a));
        w.kv("to", static_cast<std::uint64_t>(e.b));
        w.kv("tag", static_cast<std::uint64_t>(e.tag));
        w.kv("type", dispatch_tag_name(e.tag));
        break;
      case sim::flight_entry::kind::timer:
        w.kv("kind", "timer");
        w.kv("key", e.cause);
        break;
    }
    // Activation id + genealogy cause, in the causal tracer's id space
    // (absent key == none, matching the Perfetto export convention).
    if (e.event_id != sim::flight_entry::none) w.kv("id", e.event_id);
    if (e.what != sim::flight_entry::kind::timer &&
        e.cause != sim::flight_entry::none)
      w.kv("cause", e.cause);
    w.end_object();
  });
  w.end_array();
  w.end_object();
}

std::string flight_dump_json(const sim::flight_recorder& fr) {
  json_writer w;
  write_flight_dump(w, fr);
  return w.take();
}

void write_flight_dump(std::ostream& os, const sim::flight_recorder& fr) {
  os << flight_dump_json(fr) << '\n';
}

}  // namespace asyncrd::telemetry

#include "telemetry/report.h"

#include <cstdlib>
#include <fstream>

#include "telemetry/json.h"

namespace asyncrd::telemetry {

std::uint64_t peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)  // "VmHWM:  <n> kB"
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
  return 0;
}

void run_report::write_json(json_writer& w) const {
  w.begin_object();
  // Schema version first: validators reject unknown versions before
  // looking at anything else (json_check --report does).
  w.kv("report_version", report_version);
  w.kv("label", label);
  w.kv("variant", variant);
  w.kv("seed", seed);
  w.kv("nodes", nodes);
  w.kv("edges", edges);
  w.kv("completed", completed);
  w.kv("leaders", leaders);
  w.kv("events_processed", events_processed);
  w.kv("completion_time", completion_time);
  w.kv("wall_ms", wall_ms);
  w.kv("events_per_sec", events_per_sec);
  w.kv("total_messages", total_messages);
  w.kv("total_bits", total_bits);
  w.kv("id_bits", id_bits);

  w.key("messages_by_type").begin_object();
  for (const auto& [type, st] : messages_by_type) {
    w.key(type).begin_object();
    w.kv("count", st.count);
    w.kv("bits", st.bits);
    w.end_object();
  }
  w.end_object();

  if (wire.enabled) {
    w.key("wire").begin_object();
    w.kv("enabled", wire.enabled);
    w.kv("bytes_sent", wire.bytes_sent);
    w.kv("frames", wire.frames);
    w.kv("decode_errors", wire.decode_errors);
    w.key("by_type").begin_object();
    for (const auto& [type, tb] : wire.by_type) {
      w.key(type).begin_object();
      w.kv("count", tb.count);
      w.kv("bytes", tb.bytes);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }

  w.key("load");
  load.write_json(w);
  w.kv("max_load", max_load);
  if (hottest == invalid_node)
    w.key("hottest_node").null();
  else
    w.kv("hottest_node", static_cast<std::uint64_t>(hottest));

  w.key("chaos").begin_object();
  w.kv("enabled", chaos.enabled);
  w.kv("transmissions", chaos.transmissions);
  w.kv("drops", chaos.drops);
  w.kv("outage_drops", chaos.outage_drops);
  w.kv("duplicates", chaos.duplicates);
  w.kv("reorder_delay", chaos.reorder_delay);
  w.kv("data_sent", chaos.data_sent);
  w.kv("retransmits", chaos.retransmits);
  w.kv("acks_sent", chaos.acks_sent);
  w.kv("dup_suppressed", chaos.dup_suppressed);
  w.kv("timer_fires", chaos.timer_fires);
  w.kv("rto_backoffs", chaos.rto_backoffs);
  w.kv("max_rto", chaos.max_rto);
  w.end_object();

  w.key("series").begin_object();
  w.kv("interval", series.interval);
  w.kv("stride", series.stride);
  w.kv("recorded", series.recorded);
  w.key("t").begin_array();
  for (const std::uint64_t t : series.t) w.value(t);
  w.end_array();
  w.key("cols").begin_object();
  for (const auto& [name, values] : series.cols) {
    w.key(name).begin_array();
    for (const std::uint64_t v : values) w.value(v);
    w.end_array();
  }
  w.end_object();
  w.end_object();

  w.key("watchdog").begin_object();
  w.kv("armed", watchdog.armed);
  w.kv("window", watchdog.window);
  w.kv("probe_interval", watchdog.probe_interval);
  w.kv("abort_on_trip", watchdog.abort_on_trip);
  w.key("trips").begin_array();
  for (const watchdog_trip& t : watchdog.trips) {
    w.begin_object();
    w.kv("at", t.at);
    w.kv("last_progress_at", t.last_progress_at);
    w.kv("in_flight", t.in_flight);
    w.kv("arq_outstanding", t.arq_outstanding);
    w.kv("app_deliveries", t.app_deliveries);
    w.kv("merges", t.merges);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("profile").begin_object();
  w.kv("armed", profile.armed);
  w.kv("ticks_per_ns", profile.ticks_per_ns);
  w.kv("loop_ticks", profile.loop_ticks);
  w.kv("loop_ns", profile.loop_ns);
  w.kv("events", profile.events);
  w.kv("sampled_events", profile.sampled_events);
  w.kv("sample_every", profile.sample_every);
  w.kv("attributed_fraction", profile.attributed_fraction);
  const auto write_entries = [&w](const char* key, const auto& entries) {
    w.key(key).begin_array();
    for (const auto& e : entries) {
      w.begin_object();
      w.kv("name", e.name);
      w.kv("count", e.count);
      w.kv("ticks", e.ticks);
      w.kv("ns", e.ns);
      w.end_object();
    }
    w.end_array();
  };
  write_entries("phases", profile.phases);
  write_entries("tags", profile.tags);
  w.end_object();

  w.key("transitions").begin_object();
  for (const auto& [edge, count] : transitions) w.kv(edge, count);
  w.end_object();

  w.key("extra").begin_object();
  for (const auto& [k, v] : extra) w.kv(k, v);
  w.end_object();

  w.end_object();
}

std::string run_report::to_json() const {
  json_writer w;
  write_json(w);
  return w.take();
}

run_report collect_run_report(const core::discovery_run& run,
                              const sim::run_result& result,
                              const sim::load_observer* load,
                              const core::transition_recorder* transitions) {
  run_report rep;
  rep.variant = std::string(core::to_string(run.cfg().algo));
  rep.nodes = run.net().node_count();
  rep.completed = result.completed;
  rep.leaders = run.leaders().size();
  rep.events_processed = result.events_processed;
  rep.completion_time = run.net().now();
  const sim::run_timing& timing = run.net().timing();
  rep.wall_ms = timing.wall_ms();
  rep.events_per_sec = timing.events_per_sec();

  const sim::stats& st = run.statistics();
  rep.total_messages = st.total_messages();
  rep.total_bits = st.total_bits();
  rep.id_bits = st.id_bits();
  for (const auto& [type, ts] : st.by_type()) rep.messages_by_type[type] = ts;

  if (load != nullptr) {
    // all_loads: dense + spilled ids in one view, and no materialized
    // max-id-sized vector when a sparse island pushed ids far out.
    for (const auto& [id, l] : load->all_loads()) rep.load.record(l);
    rep.max_load = load->max_load();
    rep.hottest = load->hottest();
  }
  if (transitions != nullptr)
    rep.transitions = transitions->edge_multiplicities();

  rep.chaos.enabled = run.net().faults_enabled();
  const sim::fault_stats& fs = run.net().faults();
  rep.chaos.transmissions = fs.transmissions;
  rep.chaos.drops = fs.drops;
  rep.chaos.outage_drops = fs.outage_drops;
  rep.chaos.duplicates = fs.duplicates;
  rep.chaos.reorder_delay = fs.reorder_delay;
  if (const sim::reliable_link_layer* rl = run.reliable_links()) {
    const sim::reliable_link_stats rs = rl->stats();
    rep.chaos.data_sent = rs.data_sent;
    rep.chaos.retransmits = rs.retransmits;
    rep.chaos.acks_sent = rs.acks_sent;
    rep.chaos.dup_suppressed = rs.dup_suppressed;
    rep.chaos.timer_fires = rs.timer_fires;
    rep.chaos.rto_backoffs = rs.rto_backoffs;
    rep.chaos.max_rto = rs.max_rto;
  }
  return rep;
}

run_recorder::run_recorder(core::discovery_run& run, recorder_options opts)
    : run_(&run) {
  load_.reserve_dense(run.net().node_count());
  run_->net().add_observer(&load_);
  run_->set_trace(&transitions_);
  if (opts.series_interval > 0) {
    sampler_ = std::make_unique<series_sampler>(run, opts.series_interval);
    run_->net().add_health_probe(sampler_.get(), opts.series_interval);
  }
  if (opts.watchdog.window > 0) {
    watchdog_ = std::make_unique<stall_watchdog>(run, opts.watchdog);
    run_->net().add_health_probe(watchdog_.get(),
                                 watchdog_->config().probe_interval);
  }
  if (opts.flight_capacity > 0) {
    flight_ = std::make_unique<sim::flight_recorder>(opts.flight_capacity);
    run_->net().add_observer(flight_.get());
  }
  if (opts.profile) {
    profiler_ = std::make_unique<sim::cost_profiler>();
    run_->net().set_profiler(profiler_.get());
    // Warm the tick calibration now, outside the timed event loop, so the
    // series sampler's mid-run reads hit the cached value.
    (void)sim::profile_ticks_per_ns();
  }
}

run_recorder::~run_recorder() {
  if (profiler_ != nullptr && run_->net().profiler() == profiler_.get())
    run_->net().set_profiler(nullptr);
  if (flight_ != nullptr) run_->net().remove_observer(flight_.get());
  if (watchdog_ != nullptr) run_->net().remove_health_probe(watchdog_.get());
  if (sampler_ != nullptr) run_->net().remove_health_probe(sampler_.get());
  run_->net().remove_observer(&load_);
  run_->set_trace(nullptr);
}

run_report run_recorder::report(const sim::run_result& result) const {
  run_report rep = collect_run_report(*run_, result, &load_, &transitions_);
  // Channel memory: records opened over the run, and the most ever live at
  // once (the slab's high-water mark, which bounds channel state).
  rep.extra["net.channel_opens"] =
      static_cast<double>(run_->net().channel_opens());
  rep.extra["net.channel_slots"] =
      static_cast<double>(run_->net().channel_slots());
  for (const sim::memory_part& part : run_->memory_parts())
    rep.extra["mem." + std::string(part.name) + "_bytes"] =
        static_cast<double>(part.bytes);
  rep.extra["mem.peak_rss_bytes"] = static_cast<double>(peak_rss_bytes());
  if (sampler_ != nullptr) {
    rep.series.interval = sampler_->interval();
    const series_frame& f = sampler_->frame();
    rep.series.stride = f.stride();
    rep.series.recorded = f.recorded();
    rep.series.t = f.times();
    for (std::uint32_t i = 0; i < f.columns(); ++i)
      rep.series.cols.emplace_back(f.column_name(i), f.column(i));
  }
  if (watchdog_ != nullptr) {
    rep.watchdog.armed = true;
    rep.watchdog.window = watchdog_->config().window;
    rep.watchdog.probe_interval = watchdog_->config().probe_interval;
    rep.watchdog.abort_on_trip = watchdog_->config().abort_on_trip;
    rep.watchdog.trips = watchdog_->trips();
  }
  if (profiler_ != nullptr) {
    const sim::cost_profiler& prof = *profiler_;
    const double tpn = sim::profile_ticks_per_ns();
    rep.profile.armed = true;
    rep.profile.ticks_per_ns = tpn;
    rep.profile.loop_ticks = prof.loop_ticks();
    rep.profile.loop_ns = static_cast<double>(prof.loop_ticks()) / tpn;
    rep.profile.events = prof.events();
    rep.profile.sampled_events = prof.sampled_events();
    rep.profile.sample_every = prof.sample_every();
    if (prof.sampled_span_ticks() > 0)
      rep.profile.attributed_fraction =
          static_cast<double>(prof.attributed_ticks()) /
          static_cast<double>(prof.sampled_span_ticks());
    const double scale = prof.sample_scale();
    for (std::size_t i = 0; i < sim::cost_profiler::phase_count; ++i) {
      const auto& b = prof.phases()[i];
      rep.profile.phases.push_back(
          {sim::profile_phase_name(static_cast<sim::cost_profiler::phase>(i)),
           b.count, b.ticks, static_cast<double>(b.ticks) / tpn * scale});
    }
    for (std::size_t tag = 0; tag < sim::cost_profiler::tag_count; ++tag) {
      const auto& b = prof.tags()[tag];
      if (b.count == 0) continue;
      rep.profile.tags.push_back(
          {dispatch_tag_name(static_cast<std::uint8_t>(tag)), b.count,
           b.ticks, static_cast<double>(b.ticks) / tpn * scale});
    }
  }
  return rep;
}

}  // namespace asyncrd::telemetry
